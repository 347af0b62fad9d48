//! The suite runner, rebuilt on the shared execution-space engine:
//! compile once per (test, mapping), enumerate once per distinct compiled
//! program, judge everywhere.
//!
//! # Architecture
//!
//! A sweep evaluates every litmus test against a *matrix* of full-stack
//! model cells, and a matrix is nothing but a list of [`MatrixStack`]s —
//! each a row key, a compiler mapping, and a µarch model.
//! [`Sweep::run_matrix`] is the one engine entry point: it schedules
//! (test × mapping group) items over shared caches. The paper's studies
//! differ only in which stacks they list; [`MatrixSpec`] names the three
//! built-in lists:
//!
//! - [`MatrixSpec::Riscv`] — Figure 15's 28 cells (2 RISC-V ISAs × 2 spec
//!   versions × 7 µarch models, with the matching Table 2/3 mapping);
//! - [`MatrixSpec::Power`] — the §7 compiler study's cells
//!   ({leading-sync, trailing-sync} × the ARMv7 models);
//! - [`MatrixSpec::X86`] — the x86 mapping study, the committed
//!   `models/x86-tso.stack` ({sc-atomics, relaxed} × TSO).
//!
//! Stacks loaded from definition files ([`crate::registry`]) sweep
//! through the same entry point.
//!
//! Three phases of the work depend on strictly less than the full
//! (test, cell) pair, so they are shared through a [`SweepCache`]-style
//! set of concurrent caches instead of recomputed per cell:
//!
//! 1. **C11 verdicts** depend only on the test — computed once per test
//!    (a `OnceLock` per test; in [`OutcomeMode::FullOutcomes`] the cached
//!    value is the full permitted-outcome set).
//! 2. **Compilation** depends on (test, mapping) — mappings are
//!    deduplicated across cells, so each test compiles exactly once per
//!    distinct mapping (a `OnceLock` per pair).
//! 3. **Candidate enumeration** depends only on the *compiled program* —
//!    every model cell sharing a mapping judges one enumeration (see the
//!    work unit below). Groups at or above the sharing break-even also
//!    cache it: spaces are keyed by the program's structural
//!    [`Fingerprint`](tricheck_litmus::Fingerprint), so any two mappings
//!    that emit identical code (e.g. all-relaxed variants) share one
//!    enumeration too. In full-outcome mode the space's cached outcome
//!    partition is shared the same way.
//!
//! # The work unit: (test, mapping group)
//!
//! The stacks sharing one compiler mapping form a **mapping group** (the
//! seven Table 7 models of one Figure 15 (ISA, spec version) column).
//! Every model of a group judges the same compiled program, so the
//! group is judged together: work is scheduled as (test × group) items,
//! and each item does one C11 lookup, one compiled-program lookup and
//! one fused judgement for all of the group's models. The fused
//! judgement ([`FusedJudge`]) runs a multi-output kernel — the group's
//! models lowered into one hash-consed program, compiled once per sweep
//! per group — that evaluates the models' shared relations and axioms
//! once per candidate and returns a verdict bitmask, one bit per model.
//! It reads its candidates from one of two sources, chosen per group by
//! the space-sharing policy below: the program's shared space (one
//! lookup and one release per item), or one streamed enumeration of the
//! program. Either way a (test, mapping group) costs one kernel prelude
//! and one candidate stream, never one per model. Results still land in
//! test-major `t * stacks + s` slots, so the per-item layer
//! ([`MatrixItems`], [`results_from_items`]) is unchanged.
//!
//! Items are dealt over a work-stealing pool: each worker owns a
//! contiguous chunk of items and, when drained, steals from the fullest
//! remaining chunk. Items are laid out test-major so one test's groups
//! are processed close together while its compiled programs and spaces
//! are hot. `SweepOptions::threads == 1` bypasses the pool entirely for
//! a fully deterministic serial run; the parallel path produces
//! bit-identical [`SweepResults`] regardless (results are written by
//! slot index and aggregated in a fixed order).
//!
//! [`SweepResults::stats`] exposes the cache counters; the engine
//! equivalence tests assert `compile_calls == tests × mappings` and
//! `space_enumerations == distinct_programs` — i.e. nothing is ever
//! compiled or enumerated twice. [`Sweep::run_matrix_naive`] keeps the
//! pre-engine per-cell recompute path alive as the differential oracle
//! (and the baseline of `benches/pipeline.rs` and
//! `benches/power_sweep.rs`).
//!
//! Two extensions widen the engine beyond one process lifetime:
//!
//! - **Space-sharing policy** ([`SpaceSharing`]): materializing a
//!   shared space only pays off when enough models judge each program.
//!   The break-even is decided per group and only picks where the
//!   group's fused judge reads candidates: [`SpaceSharing::Auto`] gives
//!   a group of at least [`SHARING_BREAK_EVEN`] models (a Figure 15
//!   column) shared spaces, while a smaller group (a Power or x86
//!   mapping, with two models or one) streams each program through its
//!   fused judge, materializing nothing — bit-identical rows either
//!   way, pinned by `tests/power_equivalence.rs` and
//!   `tests/engine_equivalence.rs`.
//! - **Persistence** ([`SpaceStore`], implemented on disk by
//!   `tricheck-dist`): with a store attached, C11 verdicts and
//!   materialized spaces are loaded instead of recomputed and written
//!   back at the end of the run, so repeated sweeps — and shard
//!   processes sharing one cache directory — amortize enumeration
//!   across process lifetimes. [`Sweep::run_matrix_items`] /
//!   [`results_from_items`] expose the per-item layer the cross-process
//!   shard planner merges through.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex, OnceLock};

use tricheck_c11::C11Model;
use tricheck_compiler::{
    compile, power_mapping, riscv_mapping, CompileError, CompiledTest, Mapping, PowerSyncStyle,
};
use tricheck_isa::{HwAnnot, RiscvIsa, SpecVersion};
use tricheck_litmus::{ExecutionSpace, LitmusTest, Outcome};
use tricheck_rel::parse::intern;
use tricheck_rel::CompiledModel;
use tricheck_uarch::{FusedJudge, JudgeWork, UarchModel};

use crate::registry::{parse_stack, LoadedStack};
use crate::store::{C11Cached, SpaceStore};
use crate::verdict::{Classification, TestResult};

/// Which equivalence a sweep checks per (test, cell).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum OutcomeMode {
    /// Judge the test's designated target outcome only (the paper's
    /// Figure 15 mode; short-circuiting witness searches).
    #[default]
    Target,
    /// Compare the *full* outcome sets — every outcome C11 permits
    /// against every outcome the µarch exhibits (the stronger
    /// [`TriCheck::verify_full`](crate::TriCheck::verify_full)
    /// equivalence). On the engine this runs at witness-mode cost: the
    /// enumeration and outcome partition are computed once per distinct
    /// compiled program and shared by every model cell.
    FullOutcomes,
}

/// Where a mapping group's fused judge reads its candidates: from
/// shared execution spaces, or from one streamed enumeration per
/// (test, mapping).
///
/// Every group judges each program once for all of its models (see
/// [`FusedJudge`]); this policy only decides whether the candidates are
/// first materialized. Materializing a program's matching set (or
/// outcome partition) in a shared [`ExecutionSpace`] pays off when the
/// materialization is reused — by a large group, by other mappings
/// emitting the same program, or by a [`SpaceStore`]. A small group like
/// a §7 Power mapping's (2 models) has nothing to amortize it over, and
/// streaming (a witness search that stops once every model has a
/// witness, or one outcome-tracking enumeration) is cheaper. Both
/// sources produce bit-identical rows; only the cost profile and the
/// [`SweepStats`] space counters differ.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SpaceSharing {
    /// Read shared spaces when a [`SpaceStore`] is attached (persisted
    /// views must exist to be saved, and warm loads make sharing free)
    /// or for a mapping group of at least [`SHARING_BREAK_EVEN`] models;
    /// stream otherwise.
    #[default]
    Auto,
    /// Always read shared spaces (what the exactly-once contract tests
    /// pin).
    Always,
    /// Always stream, whatever the group size. With a store attached
    /// this disables space persistence (there is nothing materialized to
    /// save), so it is mainly a benchmarking/debugging mode.
    Never,
}

/// The minimum number of models in a mapping group at which
/// [`SpaceSharing::Auto`] has the group's fused judge read shared
/// execution spaces: below this, streaming each program through the
/// judge wins. A Figure 15 mapping group has 7 models (shared spaces); a
/// Power mapping's has 2 and an x86 mapping's 1 (streamed).
pub const SHARING_BREAK_EVEN: usize = 3;

/// Options controlling a sweep.
#[derive(Clone)]
pub struct SweepOptions {
    /// Worker threads (defaults to the machine's available parallelism).
    /// `1` runs serially and fully deterministically — no pool is
    /// spawned at all, which is the configuration to use under a
    /// debugger or when bisecting.
    pub threads: usize,
    /// The equivalence checked per cell (target-outcome by default).
    pub outcome_mode: OutcomeMode,
    /// Shared-space materialization policy (see [`SpaceSharing`]).
    pub space_sharing: SpaceSharing,
    /// Axiom-driven enumeration pruning (on by default): shared
    /// execution spaces cut search branches that already violate the
    /// model-independent core (coherence + RMW atomicity), which every
    /// model rejects anyway — strictly fewer candidates are
    /// materialized, with bit-identical rows (pinned by
    /// `tests/model_properties.rs` and the golden-row fixtures).
    /// Pruned and unpruned runs may freely share a cache directory:
    /// restored views only ever differ in already-doomed candidates.
    pub pruning: bool,
    /// A persistent memoization of execution spaces and C11 verdicts,
    /// consulted before computing and updated at the end of the run.
    /// `None` (the default) keeps all caches run-scoped.
    pub store: Option<Arc<dyn SpaceStore>>,
}

impl SweepOptions {
    /// Default options with an explicit thread count.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        SweepOptions {
            threads,
            ..SweepOptions::default()
        }
    }
}

impl Default for SweepOptions {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        SweepOptions {
            threads,
            outcome_mode: OutcomeMode::Target,
            space_sharing: SpaceSharing::Auto,
            pruning: true,
            store: None,
        }
    }
}

impl std::fmt::Debug for SweepOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepOptions")
            .field("threads", &self.threads)
            .field("outcome_mode", &self.outcome_mode)
            .field("space_sharing", &self.space_sharing)
            .field("pruning", &self.pruning)
            .field("store", &self.store.as_ref().map(|_| "<store>"))
            .finish()
    }
}

/// The row key of one column of a sweep matrix — what distinguishes
/// two stacks besides their µarch model: an ISA label and a variant
/// label. A Figure 15 column is `Base`/`riscv-curr`, a §7 one
/// `Power`/`leading-sync`, a stack file's column its `isa` line and
/// `mapping` section label. The labels are `&'static str` (interned for
/// runtime-loaded stacks) so the key stays `Copy`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StackKey {
    /// The ISA column label (`"Base"`, `"Base+A"`, `"Power"`, `"x86"`).
    pub isa: &'static str,
    /// The variant column label (`"riscv-curr"`, `"riscv-ours"`,
    /// `"leading-sync"`, `"trailing-sync"`, a stack file's mapping label).
    pub variant: &'static str,
}

impl StackKey {
    /// The Figure 15 column of one (RISC-V ISA, spec version) pair,
    /// labelled by their `Display` forms.
    pub(crate) fn riscv(isa: RiscvIsa, version: SpecVersion) -> Self {
        StackKey {
            isa: intern(&isa.to_string()),
            variant: intern(&version.to_string()),
        }
    }
}

/// One full-stack column of a sweep matrix: a row key, the compiler
/// mapping producing the hardware programs, and the µarch model judging
/// them. [`Sweep::run_matrix`] takes a list of these.
pub struct MatrixStack<'m> {
    /// The row key under which this cell's results are aggregated.
    pub key: StackKey,
    /// The C11 → ISA mapping (deduplicated across stacks by identity).
    pub mapping: &'m dyn Mapping,
    /// The microarchitecture model.
    pub model: UarchModel,
}

/// Classification counts for one (stack key, µarch model, litmus family)
/// cell — one bar of the paper's Figure 15 or one §7 study cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SweepRow {
    /// The stack's ISA-level row key.
    pub key: StackKey,
    /// µarch model name (e.g. `"nMM"`).
    pub model: String,
    /// Litmus template family (e.g. `"wrc"`).
    pub family: &'static str,
    /// Variants classified as bugs.
    pub bugs: usize,
    /// Variants classified as overly strict (and not bugs).
    pub overly_strict: usize,
    /// Variants where HLL and µarch agree.
    pub equivalent: usize,
}

impl SweepRow {
    /// Total variants in this cell.
    #[must_use]
    pub fn total(&self) -> usize {
        self.bugs + self.overly_strict + self.equivalent
    }
}

/// Cache-effectiveness counters for one sweep, proving the
/// enumerate-once/judge-everywhere contract.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SweepStats {
    /// Litmus tests swept.
    pub tests: usize,
    /// Full-stack model cells.
    pub cells: usize,
    /// C11 verdicts computed (== `tests`: one per test, shared by every
    /// cell; in full-outcome mode each is a permitted-outcome set).
    pub c11_evaluations: usize,
    /// Compilations performed — exactly one per (test, mapping) pair.
    pub compile_calls: usize,
    /// Cell visits that reused an already-compiled program. A group
    /// looks its program up once per test for all of its cells, so every
    /// cell after the first is a reuse.
    pub compile_cache_hits: usize,
    /// Distinct compiled programs (execution spaces created).
    pub distinct_programs: usize,
    /// (test, group) visits served by an existing execution space, plus
    /// within-space reuse of materialized enumerations.
    pub space_cache_hits: usize,
    /// Enumeration passes actually run across all spaces — equals
    /// `distinct_programs` when every space is enumerated exactly once.
    pub space_enumerations: usize,
    /// Search branches cut by axiom-driven pruning across all space
    /// enumerations (zero when [`SweepOptions::pruning`] is off or no
    /// spaces were materialized).
    pub candidates_pruned: usize,
    /// Model kernels judging the sweep's cells — one per distinct stack
    /// model, whether it is lowered alone or as one output of its
    /// group's fused kernel (sharded runs sum their per-process counts).
    pub compiled_kernels: usize,
    /// µarch candidate judgements that reused their stream's kernel
    /// prelude instead of evaluating one: a stream's judgements after
    /// its first.
    pub prelude_hits: usize,
    /// µarch kernel preludes evaluated: one per judging stream, i.e. at
    /// most one per (test, group) visit — per full-outcome space or
    /// enumeration, or per target search that found a candidate — on
    /// shared spaces and streams alike. `prelude_hits + prelude_misses`
    /// is the number of µarch candidate judgements.
    pub prelude_misses: usize,
}

impl SweepStats {
    /// Every field as a stable `(name, value)` pair, in declaration
    /// order — the counter surface `--cache-stats` and `--metrics-json`
    /// expose (injected into a `tricheck_trace::TraceReport`).
    #[must_use]
    pub fn as_counters(&self) -> [(&'static str, u64); 12] {
        [
            ("tests", self.tests as u64),
            ("cells", self.cells as u64),
            ("c11_evaluations", self.c11_evaluations as u64),
            ("compile_calls", self.compile_calls as u64),
            ("compile_cache_hits", self.compile_cache_hits as u64),
            ("distinct_programs", self.distinct_programs as u64),
            ("space_cache_hits", self.space_cache_hits as u64),
            ("space_enumerations", self.space_enumerations as u64),
            ("candidates_pruned", self.candidates_pruned as u64),
            ("compiled_kernels", self.compiled_kernels as u64),
            ("prelude_hits", self.prelude_hits as u64),
            ("prelude_misses", self.prelude_misses as u64),
        ]
    }
}

/// Aggregated results of a sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepResults {
    rows: Vec<SweepRow>,
    stats: SweepStats,
}

impl SweepResults {
    /// All rows, ordered by (stack, model, family) in matrix order.
    #[must_use]
    pub fn rows(&self) -> &[SweepRow] {
        &self.rows
    }

    /// The sweep's cache counters ([`SweepStats::default`] for the naive
    /// paths, which cache nothing).
    #[must_use]
    pub fn stats(&self) -> &SweepStats {
        &self.stats
    }

    /// The row for an exact cell, if present. `model` matches the bare
    /// model name (`"nMM"`), ignoring any version suffix.
    #[must_use]
    pub fn row(&self, key: StackKey, model: &str, family: &str) -> Option<&SweepRow> {
        self.rows
            .iter()
            .find(|r| r.key == key && bare_model_name(&r.model) == model && r.family == family)
    }

    /// Total bugs across all families for one (stack key, model).
    #[must_use]
    pub fn bugs_for(&self, key: StackKey, model: &str) -> usize {
        self.rows
            .iter()
            .filter(|r| r.key == key && bare_model_name(&r.model) == model)
            .map(|r| r.bugs)
            .sum()
    }

    /// Total bugs in the entire sweep.
    #[must_use]
    pub fn grand_total_bugs(&self) -> usize {
        self.rows.iter().map(|r| r.bugs).sum()
    }
}

fn bare_model_name(full: &str) -> &str {
    full.split('/').next().unwrap_or(full)
}

/// Per-item sweep output: one classification per (test × stack) pair in
/// test-major order, plus the run's cache statistics. Produced by
/// [`Sweep::run_matrix_items`]; aggregated by [`results_from_items`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MatrixItems {
    /// `items[t * n_stacks + s]` is the classification of test `t` on
    /// stack `s`, or `None` if the stack's mapping cannot compile it.
    pub items: Vec<Option<Classification>>,
    /// The run's cache counters.
    pub stats: SweepStats,
}

/// Aggregates per-item classifications into [`SweepResults`] rows, in
/// deterministic (stack, test) order. This is the single aggregation
/// path: [`Sweep::run_matrix`] routes through it, and the shard planner
/// reuses it on merged item vectors so sharded results are bit-identical
/// to single-process ones.
///
/// # Panics
///
/// Panics if `items.len() != tests.len() * stacks.len()`.
#[must_use]
pub fn results_from_items(
    tests: &[LitmusTest],
    stacks: &[MatrixStack<'_>],
    items: &[Option<Classification>],
    stats: SweepStats,
) -> SweepResults {
    assert_eq!(
        items.len(),
        tests.len() * stacks.len(),
        "one item per (test, stack) pair"
    );
    let n_stacks = stacks.len();
    let mut rows = Vec::new();
    for (s, stack) in stacks.iter().enumerate() {
        let cell_results: Vec<TestResult> = (0..tests.len())
            .filter_map(|t| {
                items[t * n_stacks + s].map(|c| TestResult::from_classification(&tests[t], c))
            })
            .collect();
        rows.extend(aggregate(stack.key, stack.model.name(), &cell_results));
    }
    SweepResults { rows, stats }
}

/// One cell of a sweep: a matrix stack plus its index into the
/// deduplicated mapping list.
struct Cell<'a, 'm> {
    mapping_idx: usize,
    mapping: &'m dyn Mapping,
    model: &'a UarchModel,
}

/// One mapping group of a sweep — cells sharing a compiler mapping,
/// judged together per test (see the [module docs](self)).
struct Group<'a, 'm> {
    mapping_idx: usize,
    mapping: &'m dyn Mapping,
    /// The group's cells as (matrix column, model), in matrix order.
    cells: Vec<(usize, &'a UarchModel)>,
    /// The fused kernel of the group's models, compiled once per sweep.
    judge: FusedJudge,
    /// Whether the judge reads candidates from shared execution spaces
    /// (at or above the sharing break-even) or streams them.
    shares_spaces: bool,
}

impl<'a, 'm> Group<'a, 'm> {
    /// Groups `cells` by mapping, in order of first appearance, and
    /// compiles each group's fused judge. A mapping with more models
    /// than one kernel judges is split. `shares_spaces(models)` decides
    /// each group's candidate source.
    fn of(cells: &[Cell<'a, 'm>], shares_spaces: impl Fn(usize) -> bool) -> Vec<Self> {
        // Each group's matrix columns, in order of first appearance.
        let mut columns: Vec<Vec<usize>> = Vec::new();
        for (s, cell) in cells.iter().enumerate() {
            let open = columns.iter_mut().rev().find(|group| {
                cells[group[0]].mapping_idx == cell.mapping_idx
                    && group.len() < CompiledModel::MAX_MODELS
            });
            match open {
                Some(group) => group.push(s),
                None => columns.push(vec![s]),
            }
        }
        columns
            .into_iter()
            .map(|columns| {
                let first = &cells[columns[0]];
                let models: Vec<&UarchModel> = columns.iter().map(|&s| cells[s].model).collect();
                Group {
                    mapping_idx: first.mapping_idx,
                    mapping: first.mapping,
                    judge: FusedJudge::new(&models),
                    shares_spaces: shares_spaces(models.len()),
                    cells: columns.into_iter().zip(models).collect(),
                }
            })
            .collect()
    }
}

/// One entry of the sweep's space cache: the shared space plus, when it
/// was restored from the persistent store, a digest of the snapshot it
/// was restored from — so [`SweepCache::persist`] can detect views
/// derived *without* enumerating (e.g. a matching set filtered out of a
/// restored full view) and write them back too.
struct CachedSpace {
    space: Arc<ExecutionSpace<HwAnnot>>,
    loaded_digest: Option<u64>,
}

impl CachedSpace {
    fn snapshot_digest(space: &ExecutionSpace<HwAnnot>) -> u64 {
        tricheck_litmus::codec::fnv1a(&space.snapshot())
    }
}

/// Space-cache statistics drained from eagerly-reclaimed spaces.
/// [`SweepCache::stats`] adds these to whatever is still live in the
/// map, so the reported totals are identical whether a space was freed
/// mid-run or survived to teardown.
#[derive(Default)]
struct ReclaimedSpaces {
    distinct_programs: usize,
    enumerations: usize,
    cache_hits: usize,
    candidates_pruned: usize,
}

/// The concurrent caches shared by every (test × group) work item.
struct SweepCache<'t> {
    tests: &'t [LitmusTest],
    n_mappings: usize,
    mode: OutcomeMode,
    /// Whether spaces enumerate with axiom-driven pruning.
    pruning: bool,
    c11: C11Model,
    /// The persistent store, consulted on C11 and space cache misses.
    store: Option<&'t dyn SpaceStore>,
    /// One verdict per test, computed on first demand.
    c11_verdicts: Vec<OnceLock<C11Cached>>,
    /// One compilation per (test, mapping): index `t * n_mappings + m`.
    compiled: Vec<OnceLock<Result<Arc<CompiledTest>, CompileError>>>,
    /// Execution spaces keyed by program fingerprint. Buckets hold every
    /// structurally-distinct program sharing a fingerprint, so a hash
    /// collision degrades to a linear probe instead of a wrong verdict.
    spaces: Mutex<HashMap<u64, Vec<CachedSpace>>>,
    /// Remaining (test × group) visits per program fingerprint, set by
    /// the reclaim pre-pass in [`Sweep::run_cells`]. Present only when
    /// eager space reclamation is on (shared spaces, no store to
    /// persist them to).
    space_visits: OnceLock<HashMap<u64, AtomicUsize>>,
    /// Statistics of spaces already freed by [`SweepCache::release_space`].
    reclaimed: Mutex<ReclaimedSpaces>,
    c11_evaluations: AtomicUsize,
    compile_calls: AtomicUsize,
    compile_cache_hits: AtomicUsize,
    space_lookup_hits: AtomicUsize,
    prelude_hits: AtomicUsize,
    prelude_misses: AtomicUsize,
}

impl<'t> SweepCache<'t> {
    fn new(
        tests: &'t [LitmusTest],
        n_mappings: usize,
        mode: OutcomeMode,
        pruning: bool,
        store: Option<&'t dyn SpaceStore>,
    ) -> Self {
        SweepCache {
            tests,
            n_mappings,
            mode,
            pruning,
            c11: C11Model::new(),
            store,
            c11_verdicts: (0..tests.len()).map(|_| OnceLock::new()).collect(),
            compiled: (0..tests.len() * n_mappings)
                .map(|_| OnceLock::new())
                .collect(),
            spaces: Mutex::new(HashMap::new()),
            space_visits: OnceLock::new(),
            reclaimed: Mutex::new(ReclaimedSpaces::default()),
            c11_evaluations: AtomicUsize::new(0),
            compile_calls: AtomicUsize::new(0),
            compile_cache_hits: AtomicUsize::new(0),
            space_lookup_hits: AtomicUsize::new(0),
            prelude_hits: AtomicUsize::new(0),
            prelude_misses: AtomicUsize::new(0),
        }
    }

    /// Step 1 verdict for one test, computed at most once sweep-wide
    /// (the designated-target verdict, or the full permitted set). With
    /// a store attached, a persisted verdict is loaded instead of
    /// evaluated — `c11_evaluations` counts only actual evaluations, so
    /// a fully warm run reports zero.
    fn c11_entry(&self, t: usize) -> &C11Cached {
        self.c11_verdicts[t].get_or_init(|| {
            if let Some(cached) = self
                .store
                .and_then(|s| s.load_c11(&self.tests[t], self.mode))
            {
                return cached;
            }
            self.c11_evaluations.fetch_add(1, Ordering::Relaxed);
            let _t = tricheck_trace::span(tricheck_trace::Phase::C11Eval);
            match self.mode {
                OutcomeMode::Target => C11Cached::Target(self.c11.permits_target(&self.tests[t])),
                OutcomeMode::FullOutcomes => {
                    C11Cached::Full(self.c11.permitted_outcomes(&self.tests[t]))
                }
            }
        })
    }

    /// Step 2 result for one (test, mapping), compiled at most once.
    fn compiled(
        &self,
        t: usize,
        mapping_idx: usize,
        mapping: &dyn Mapping,
    ) -> Result<Arc<CompiledTest>, CompileError> {
        let slot = &self.compiled[t * self.n_mappings + mapping_idx];
        let mut fresh = false;
        let result = slot.get_or_init(|| {
            fresh = true;
            self.compile_calls.fetch_add(1, Ordering::Relaxed);
            let _t = tricheck_trace::span(tricheck_trace::Phase::Compile);
            compile(&self.tests[t], mapping).map(Arc::new)
        });
        if !fresh {
            self.compile_cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// The shared execution space for a compiled program, created at most
    /// once per structurally-distinct program. On a run-local miss the
    /// persistent store is consulted (outside the cache lock — disk reads
    /// must not serialize the worker pool); a loaded space arrives with
    /// its persisted views pre-materialized, so queries against it hit
    /// caches instead of enumerating.
    ///
    /// Also returns the program's fingerprint so the caller can hand
    /// the space back to [`SweepCache::release_space`] without hashing
    /// the program a second time.
    fn space_for(&self, compiled: &CompiledTest) -> (Arc<ExecutionSpace<HwAnnot>>, u64) {
        let fingerprint = tricheck_litmus::Fingerprint::of(compiled.program());
        {
            let mut spaces = self.spaces.lock().expect("space cache lock");
            let bucket = spaces.entry(fingerprint.as_u64()).or_default();
            if let Some(entry) = bucket
                .iter()
                .find(|e| e.space.program() == compiled.program())
            {
                self.space_lookup_hits.fetch_add(1, Ordering::Relaxed);
                return (Arc::clone(&entry.space), fingerprint.as_u64());
            }
        }
        let loaded = self
            .store
            .and_then(|s| s.load_space(compiled.program()))
            .map(|space| {
                // Re-arm pruning on restored spaces so views enumerated
                // later in this run are pruned like fresh ones.
                let space = if self.pruning {
                    space.into_pruned()
                } else {
                    space
                };
                CachedSpace {
                    loaded_digest: Some(CachedSpace::snapshot_digest(&space)),
                    space: Arc::new(space),
                }
            });
        let mut spaces = self.spaces.lock().expect("space cache lock");
        let bucket = spaces.entry(fingerprint.as_u64()).or_default();
        // Re-check: another worker may have installed the space while we
        // were reading the store.
        if let Some(entry) = bucket
            .iter()
            .find(|e| e.space.program() == compiled.program())
        {
            self.space_lookup_hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(&entry.space), fingerprint.as_u64());
        }
        let entry = loaded.unwrap_or_else(|| {
            let program = compiled.program().clone();
            let space = if self.pruning {
                ExecutionSpace::pruned(program)
            } else {
                ExecutionSpace::new(program)
            };
            CachedSpace {
                space: Arc::new(space),
                loaded_digest: None,
            }
        });
        let space = Arc::clone(&entry.space);
        bucket.push(entry);
        (space, fingerprint.as_u64())
    }

    /// Releases one precounted visit to a space. The visitor that
    /// brings its fingerprint's count to zero retires the whole bucket
    /// — freeing the space's arenas while their chunks are still warm
    /// in cache instead of cold-walking every space at teardown — and
    /// drains the bucket's statistics so [`SweepCache::stats`] still
    /// sees them. A no-op when the reclaim pre-pass did not run; visits
    /// that bail before touching the space (compile errors) never
    /// decrement, so their buckets conservatively survive to teardown.
    fn release_space(&self, fingerprint: u64, space: Arc<ExecutionSpace<HwAnnot>>) {
        let Some(visits) = self.space_visits.get() else {
            return;
        };
        let Some(remaining) = visits.get(&fingerprint) else {
            return;
        };
        // AcqRel: the zero-observer must see every earlier visitor's
        // space-statistics writes before draining them below.
        if remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let bucket = self
            .spaces
            .lock()
            .expect("space cache lock")
            .remove(&fingerprint);
        if let Some(bucket) = &bucket {
            let mut reclaimed = self.reclaimed.lock().expect("reclaimed stats lock");
            for entry in bucket {
                let s = entry.space.stats();
                reclaimed.distinct_programs += 1;
                reclaimed.enumerations += s.enumerations;
                reclaimed.cache_hits += s.cache_hits;
                reclaimed.candidates_pruned += s.candidates_pruned;
            }
        }
        drop(bucket);
        // Our own `space` reference drops last: for the common
        // single-program bucket it is the final Arc, so the frees run
        // here, on the worker that just finished using the space.
        drop(space);
    }

    /// Writes newly-computed work back to the persistent store: every
    /// space whose materialized views grew this sweep — by enumerating,
    /// or by deriving a new view from a restored one (e.g. filtering a
    /// cached full list down to a target's matching set), detected by
    /// comparing the snapshot digest against what was loaded — and
    /// every C11 verdict that was materialized (the store skips values
    /// it already holds).
    fn persist(&self, store: &dyn SpaceStore) {
        let spaces = self.spaces.lock().expect("space cache lock");
        for entry in spaces.values().flatten() {
            let grown = match entry.loaded_digest {
                None => entry.space.stats().enumerations > 0,
                Some(digest) => CachedSpace::snapshot_digest(&entry.space) != digest,
            };
            if grown {
                store.save_space(&entry.space);
            }
        }
        drop(spaces);
        for (t, slot) in self.c11_verdicts.iter().enumerate() {
            if let Some(entry) = slot.get() {
                store.save_c11(&self.tests[t], entry);
            }
        }
    }

    /// Runs one (test, group) work item through Steps 1–4, handing each
    /// of the group's cells its result via `emit(matrix column, result)`
    /// (`None` if the mapping cannot compile the test).
    ///
    /// Every item makes one compiled-program lookup and one fused
    /// judgement for all of the group's models. A group sharing spaces
    /// judges the program's shared space (looked up, then released for
    /// eager reclamation); a streaming group (below the sharing
    /// break-even) judges one unpruned enumeration of the program that
    /// materializes nothing.
    fn process(
        &self,
        t: usize,
        group: &Group<'_, '_>,
        mut emit: impl FnMut(usize, Option<TestResult>),
    ) {
        // Step 1 before Step 2, so `c11_evaluations == tests` holds even
        // for a test no mapping can compile (the naive path evaluates
        // every test's C11 verdict too).
        let entry = self.c11_entry(t);
        let test = &self.tests[t];
        let compiled = self.compiled(t, group.mapping_idx, group.mapping);
        // One lookup serves the whole group: every cell after the first
        // reuses the program it returned.
        self.compile_cache_hits
            .fetch_add(group.cells.len() - 1, Ordering::Relaxed);
        let Ok(compiled) = compiled else {
            // The paper's suite always compiles.
            for &(s, _) in &group.cells {
                emit(s, None);
            }
            return;
        };
        let judge = &group.judge;
        let space = group.shares_spaces.then(|| self.space_for(&compiled));
        let mut work = JudgeWork::default();
        match entry {
            C11Cached::Target(permitted) => {
                let observable = match &space {
                    Some((space, _)) => judge.observes_in(space, compiled.target(), &mut work),
                    None => judge.observes(compiled.program(), compiled.target(), &mut work),
                };
                for (k, &(s, _)) in group.cells.iter().enumerate() {
                    let observable = observable >> k & 1 == 1;
                    emit(s, Some(TestResult::new(test, *permitted, observable)));
                }
            }
            C11Cached::Full(permitted) => {
                let observable = match &space {
                    Some((space, _)) => {
                        judge.observable_outcomes_in(space, compiled.observed(), &mut work)
                    }
                    None => judge.observable_outcomes(
                        compiled.program(),
                        compiled.observed(),
                        &mut work,
                    ),
                };
                for (&(s, _), observable) in group.cells.iter().zip(&observable) {
                    let classification = classify_sets(permitted, observable);
                    emit(
                        s,
                        Some(TestResult::from_classification(test, classification)),
                    );
                }
            }
        }
        if let Some((space, fingerprint)) = space {
            self.release_space(fingerprint, space);
        }
        self.count_streams(work);
    }

    /// Adds one item's judging work to the prelude counters.
    fn count_streams(&self, work: JudgeWork) {
        self.prelude_misses
            .fetch_add(work.streams, Ordering::Relaxed);
        self.prelude_hits
            .fetch_add(work.judged - work.streams, Ordering::Relaxed);
    }

    /// Drains the cache into sweep-level statistics.
    fn stats(&self, cells: &[Cell<'_, '_>]) -> SweepStats {
        let spaces = self.spaces.lock().expect("space cache lock");
        let reclaimed = self.reclaimed.lock().expect("reclaimed stats lock");
        let mut distinct_programs = reclaimed.distinct_programs;
        let mut space_enumerations = reclaimed.enumerations;
        let mut candidates_pruned = reclaimed.candidates_pruned;
        let mut space_cache_hits =
            self.space_lookup_hits.load(Ordering::Relaxed) + reclaimed.cache_hits;
        for entry in spaces.values().flatten() {
            distinct_programs += 1;
            let s = entry.space.stats();
            space_enumerations += s.enumerations;
            space_cache_hits += s.cache_hits;
            candidates_pruned += s.candidates_pruned;
        }
        let mut models: Vec<&UarchModel> = Vec::new();
        for cell in cells {
            if !models.iter().any(|m| std::ptr::eq(*m, cell.model)) {
                models.push(cell.model);
            }
        }
        SweepStats {
            tests: self.tests.len(),
            cells: cells.len(),
            c11_evaluations: self.c11_evaluations.load(Ordering::Relaxed),
            compile_calls: self.compile_calls.load(Ordering::Relaxed),
            compile_cache_hits: self.compile_cache_hits.load(Ordering::Relaxed),
            distinct_programs,
            space_cache_hits,
            space_enumerations,
            candidates_pruned,
            compiled_kernels: models.len(),
            prelude_hits: self.prelude_hits.load(Ordering::Relaxed),
            prelude_misses: self.prelude_misses.load(Ordering::Relaxed),
        }
    }
}

/// The set-level Step 4 classification: any observable-but-forbidden
/// outcome is a bug witness; otherwise any permitted-but-unobservable
/// outcome makes the cell overly strict.
fn classify_sets(permitted: &BTreeSet<Outcome>, observable: &BTreeSet<Outcome>) -> Classification {
    if observable.difference(permitted).next().is_some() {
        Classification::Bug
    } else if permitted.difference(observable).next().is_some() {
        Classification::OverlyStrict
    } else {
        Classification::Equivalent
    }
}

/// Runs litmus suites through full-stack configurations.
#[derive(Clone, Debug, Default)]
pub struct Sweep {
    options: SweepOptions,
}

impl Sweep {
    /// A sweep with default options.
    #[must_use]
    pub fn new() -> Self {
        Sweep::default()
    }

    /// A sweep with explicit options.
    #[must_use]
    pub fn with_options(options: SweepOptions) -> Self {
        Sweep { options }
    }

    /// Evaluates one stack (mapping + µarch model) over a set of tests,
    /// returning per-test results. Tests the mapping cannot compile are
    /// skipped (the paper's suite always compiles).
    ///
    /// In [`OutcomeMode::FullOutcomes`] each result's classification is
    /// the set-level verdict of
    /// [`TriCheck::verify_full`](crate::TriCheck::verify_full).
    #[must_use]
    pub fn run_stack(
        &self,
        tests: &[LitmusTest],
        mapping: &dyn Mapping,
        model: &UarchModel,
    ) -> Vec<TestResult> {
        let cells = vec![Cell {
            mapping_idx: 0,
            mapping,
            model,
        }];
        let (results, _) = self.run_cells(tests, &cells, 1, |_| mapping.name().to_string());
        results.into_iter().flatten().collect()
    }

    /// Runs the generic sweep matrix: every test × every stack, on the
    /// shared execution-space engine. Each (test, mapping) pair is
    /// compiled exactly once and each distinct compiled program is
    /// enumerated exactly once across all cells — see
    /// [`SweepResults::stats`].
    ///
    /// Mappings are deduplicated across stacks by fat-pointer identity
    /// (address AND vtable): the paper's mappings are zero-sized statics,
    /// so bare addresses all coincide, and dedup by name would let a name
    /// collision reuse the wrong compiled programs. A duplicated vtable
    /// across codegen units only costs a redundant cache column, never a
    /// wrong reuse.
    #[must_use]
    pub fn run_matrix(&self, tests: &[LitmusTest], stacks: &[MatrixStack<'_>]) -> SweepResults {
        let items = self.run_matrix_items(tests, stacks);
        results_from_items(tests, stacks, &items.items, items.stats)
    }

    /// The engine sweep at per-item granularity: every (test × stack)
    /// classification in test-major order (`t * stacks.len() + s`),
    /// without row aggregation. `None` marks a (test, stack) pair whose
    /// mapping could not compile the test.
    ///
    /// This is the layer the cross-process shard planner
    /// (`tricheck-dist`) speaks: shard workers return their items, the
    /// parent reassembles the full item vector and aggregates it through
    /// [`results_from_items`] — the same function [`Sweep::run_matrix`]
    /// uses, which is what makes merged sharded results bit-identical to
    /// a single-process run by construction.
    #[must_use]
    pub fn run_matrix_items(
        &self,
        tests: &[LitmusTest],
        stacks: &[MatrixStack<'_>],
    ) -> MatrixItems {
        let mut mappings: Vec<&dyn Mapping> = Vec::new();
        let cells: Vec<Cell<'_, '_>> = stacks
            .iter()
            .map(|stack| {
                #[allow(ambiguous_wide_pointer_comparisons)]
                let mapping_idx = match mappings
                    .iter()
                    .position(|m| std::ptr::eq(*m as *const dyn Mapping, stack.mapping))
                {
                    Some(i) => i,
                    None => {
                        mappings.push(stack.mapping);
                        mappings.len() - 1
                    }
                };
                Cell {
                    mapping_idx,
                    mapping: stack.mapping,
                    model: &stack.model,
                }
            })
            .collect();
        let (results, stats) = self.run_cells(tests, &cells, mappings.len(), |s| {
            let key = stacks[s].key;
            format!("{}/{}", key.isa, key.variant)
        });
        // Reducing 20k+ results to bare classifications drops every
        // per-item `TestResult` (and its heap data) in one pass —
        // teardown work, like freeing the space cache below.
        let _t = tricheck_trace::span(tricheck_trace::Phase::Teardown);
        MatrixItems {
            items: results
                .into_iter()
                .map(|r| r.map(|r| r.classification()))
                .collect(),
            stats,
        }
    }

    /// The naive counterpart of [`Sweep::run_matrix`]: identical cells,
    /// but every cell recompiles and re-enumerates from scratch (the C11
    /// verdicts are still computed once — the pre-engine pipeline always
    /// shared those).
    ///
    /// Kept as the differential oracle for the engine (the equivalence
    /// tests assert its rows match `run_matrix`'s exactly) and as the
    /// baseline of the pipeline benchmarks. `stats()` is all zeros.
    #[must_use]
    pub fn run_matrix_naive(
        &self,
        tests: &[LitmusTest],
        stacks: &[MatrixStack<'_>],
    ) -> SweepResults {
        let c11 = self.c11_entries_naive(tests);
        let mut rows = Vec::new();
        for stack in stacks {
            let results = self.cell_results_naive(tests, &c11, stack.mapping, &stack.model);
            rows.extend(aggregate(stack.key, stack.model.name(), &results));
        }
        SweepResults {
            rows,
            stats: SweepStats::default(),
        }
    }

    /// [`Sweep::run_matrix_naive`] over [`MatrixSpec::Riscv`]'s stacks:
    /// the pre-engine Figure 15 sweep. Kept under this name because the
    /// benchmark's reference test (`perfbench/tests/reference.rs`) calls
    /// it; other callers pass a [`MatrixSpec`]'s stacks to
    /// [`Sweep::run_matrix_naive`].
    #[must_use]
    pub fn run_riscv_naive(&self, tests: &[LitmusTest]) -> SweepResults {
        self.run_matrix_naive(tests, &MatrixSpec::Riscv.stacks())
    }

    /// Processes every (test × mapping group) item over the shared caches
    /// and the work-stealing pool, returning per-cell results
    /// (test-major, `t * cells.len() + s`) plus cache statistics.
    /// `label(s)` names the group whose first cell is matrix column `s`
    /// in the trace's per-group latency table.
    fn run_cells(
        &self,
        tests: &[LitmusTest],
        cells: &[Cell<'_, '_>],
        n_mappings: usize,
        label: impl Fn(usize) -> String,
    ) -> (Vec<Option<TestResult>>, SweepStats) {
        let store = self.options.store.as_deref();
        let cache = SweepCache::new(
            tests,
            n_mappings,
            self.options.outcome_mode,
            self.options.pruning,
            store,
        );
        let n_cells = cells.len();
        let results: Vec<OnceLock<Option<TestResult>>> = (0..tests.len() * n_cells)
            .map(|_| OnceLock::new())
            .collect();

        // Shared-space materialization amortizes over the models judging
        // each program, so the break-even is decided per group: below it
        // (and with no store to feed or exploit) the group's fused judge
        // streams each program instead. Every group compiles its fused
        // kernel once, here.
        let groups = Group::of(cells, |models| match self.options.space_sharing {
            SpaceSharing::Always => true,
            SpaceSharing::Never => false,
            SpaceSharing::Auto => store.is_some() || models >= SHARING_BREAK_EVEN,
        });
        // Eager space reclamation: with shared spaces and no store to
        // persist them to, every space is dead the moment its last
        // visitor finishes — and the sweep knows exactly how many
        // visitors each program gets. Precompile the (test × mapping)
        // grid of the sharing groups (the same compilations the items
        // would otherwise do lazily, so `compile_calls` is unchanged;
        // the items' lookups all become cache hits) to count visits per
        // fingerprint; `release_space` then frees each space right after
        // its final use, while its memory is still warm in cache,
        // instead of cold-walking thousands of spaces in one teardown
        // burst.
        if store.is_none() && groups.iter().any(|g| g.shares_spaces) {
            let mut visits_per_program = vec![0usize; n_mappings];
            let mut mapping_reps: Vec<Option<&dyn Mapping>> = vec![None; n_mappings];
            for group in groups.iter().filter(|g| g.shares_spaces) {
                visits_per_program[group.mapping_idx] += 1;
                mapping_reps[group.mapping_idx].get_or_insert(group.mapping);
            }
            let mut visits: HashMap<u64, usize> = HashMap::new();
            for t in 0..tests.len() {
                for (m, mapping) in mapping_reps.iter().enumerate() {
                    let Some(mapping) = mapping else { continue };
                    if let Ok(compiled) = cache.compiled(t, m, *mapping) {
                        let fingerprint =
                            tricheck_litmus::Fingerprint::of(compiled.program()).as_u64();
                        *visits.entry(fingerprint).or_default() += visits_per_program[m];
                    }
                }
            }
            let visits = visits
                .into_iter()
                .map(|(fingerprint, count)| (fingerprint, AtomicUsize::new(count)))
                .collect();
            cache
                .space_visits
                .set(visits)
                .unwrap_or_else(|_| unreachable!("the pre-pass runs once"));
        }
        // Label the per-group latency histograms; the iterator is only
        // consumed when a metrics session is collecting.
        tricheck_trace::set_keys(groups.iter().map(|g| label(g.cells[0].0)));
        let n_groups = groups.len();
        let n_items = tests.len() * n_groups;
        let process = |i: usize| {
            let (t, g) = (i / n_groups, i % n_groups);
            {
                let _cell = tricheck_trace::cell_span(g);
                cache.process(t, &groups[g], |s, result| {
                    results[t * n_cells + s]
                        .set(result)
                        .expect("each (test, cell) slot is written exactly once");
                });
            }
            tricheck_trace::progress_item_done();
        };
        tricheck_trace::progress_begin(n_items as u64);
        run_work_stealing(n_items, self.options.threads, &process);

        if let Some(store) = store {
            cache.persist(store);
            store.flush();
        }
        let stats = cache.stats(cells);
        let results = results
            .into_iter()
            .map(|slot| slot.into_inner().expect("all work items processed"))
            .collect();
        // Freeing the cache used to deallocate every materialized
        // candidate execution of the sweep in one burst; with the
        // columnar arenas and eager space reclamation above, the spaces
        // are already gone and what remains is the compiled-program and
        // C11-verdict tables — small, but still worth its own phase so
        // regressions that reinflate the burst stay visible in traces.
        {
            let _t = tricheck_trace::span(tricheck_trace::Phase::Teardown);
            drop(cache);
        }
        (results, stats)
    }

    /// Step 1 verdicts for all tests, computed in parallel (naive path).
    fn c11_entries_naive(&self, tests: &[LitmusTest]) -> Vec<C11Cached> {
        let hll = C11Model::new();
        let mode = self.options.outcome_mode;
        parallel_map(tests, self.options.threads, |t| match mode {
            OutcomeMode::Target => C11Cached::Target(hll.permits_target(t)),
            OutcomeMode::FullOutcomes => C11Cached::Full(hll.permitted_outcomes(t)),
        })
    }

    fn cell_results_naive(
        &self,
        tests: &[LitmusTest],
        c11: &[C11Cached],
        mapping: &dyn Mapping,
        model: &UarchModel,
    ) -> Vec<TestResult> {
        let indexed: Vec<(usize, &LitmusTest)> = tests.iter().enumerate().collect();
        parallel_map(&indexed, self.options.threads, |&(i, test)| {
            let Ok(compiled) = compile(test, mapping) else {
                return None;
            };
            Some(match &c11[i] {
                C11Cached::Target(permitted) => {
                    let observable = model.observes(compiled.program(), compiled.target());
                    TestResult::new(test, *permitted, observable)
                }
                C11Cached::Full(permitted) => {
                    let observable =
                        model.observable_outcomes(compiled.program(), compiled.observed());
                    TestResult::from_classification(test, classify_sets(permitted, &observable))
                }
            })
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

/// A built-in study: one of the three stack lists the tool ships. A
/// sweep is just a list of [`MatrixStack`]s; this names the built-in
/// ones, so a process that shares no memory with its caller (a shard
/// worker) can rebuild the exact matrix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatrixSpec {
    /// Figure 15: every Table 7 model × {Base, Base+A} × {riscv-curr,
    /// riscv-ours}, with the matching Table 2/3 mapping (28 stacks).
    Riscv,
    /// The §7 compiler study: {leading-sync, trailing-sync} C11 → Power
    /// mappings × the ARMv7 models (4 stacks).
    Power,
    /// The x86 mapping study: the committed `models/x86-tso.stack`,
    /// {sc-atomics, relaxed} C11 → x86 mappings × its TSO model (2
    /// stacks).
    X86,
}

impl MatrixSpec {
    /// The study's stacks, in presentation order (file order for x86).
    /// Every call returns the same mapping references (sweeps group
    /// stacks by mapping identity) and fresh, uncompiled models.
    #[must_use]
    pub fn stacks(self) -> Vec<MatrixStack<'static>> {
        let mut stacks = Vec::new();
        match self {
            MatrixSpec::Riscv => {
                for isa in [RiscvIsa::Base, RiscvIsa::BaseA] {
                    for version in [SpecVersion::Curr, SpecVersion::Ours] {
                        let key = StackKey::riscv(isa, version);
                        let mapping = riscv_mapping(isa, version);
                        for model in UarchModel::all_riscv(version) {
                            stacks.push(MatrixStack {
                                key,
                                mapping,
                                model,
                            });
                        }
                    }
                }
            }
            MatrixSpec::Power => {
                for style in PowerSyncStyle::ALL {
                    let key = StackKey {
                        isa: "Power",
                        variant: style.label(),
                    };
                    for model in UarchModel::all_armv7() {
                        stacks.push(MatrixStack {
                            key,
                            mapping: power_mapping(style),
                            model,
                        });
                    }
                }
            }
            MatrixSpec::X86 => {
                for stack in &x86_tso().stacks {
                    stacks.push(MatrixStack {
                        key: stack.key,
                        mapping: stack.mapping,
                        model: stack.model.clone(),
                    });
                }
            }
        }
        stacks
    }

    /// The title of the study's mapping-study table
    /// ([`report::stack_table`](crate::report::stack_table)), or `None`
    /// for Figure 15, which renders one chart per litmus family. The x86
    /// title is the stack file's `title` line.
    #[must_use]
    pub fn title(self) -> Option<&'static str> {
        match self {
            MatrixSpec::Riscv => None,
            MatrixSpec::Power => Some("§7 compiler study: C11 → Power mappings on ARMv7"),
            MatrixSpec::X86 => Some(x86_tso().title.as_str()),
        }
    }
}

/// The x86 study's stack file, embedded at build time and parsed once
/// per process.
fn x86_tso() -> &'static LoadedStack {
    static X86_TSO: LazyLock<LoadedStack> = LazyLock::new(|| {
        let src = include_str!("../../../models/x86-tso.stack");
        parse_stack(src, "models/x86-tso.stack", false)
            .unwrap_or_else(|e| panic!("the committed x86 stack file must parse: {e}"))
    });
    &X86_TSO
}

/// One worker's slice of the item range, drained from the front by its
/// owner and by thieves alike (overshooting `fetch_add` is harmless: an
/// index at or past `end` is simply not processed).
struct Chunk {
    next: AtomicUsize,
    end: usize,
}

impl Chunk {
    fn take(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.end).then_some(i)
    }

    fn remaining(&self) -> usize {
        self.end.saturating_sub(self.next.load(Ordering::Relaxed))
    }
}

/// Runs `process(0..n_items)` over `threads` workers with work stealing.
///
/// Items are dealt into contiguous per-worker chunks; a worker drains its
/// own chunk, then repeatedly steals from the chunk with the most items
/// remaining until the whole range is exhausted. `threads <= 1` runs the
/// items serially on the calling thread, in order — the deterministic
/// debugging mode `SweepOptions::threads` documents.
fn run_work_stealing(n_items: usize, threads: usize, process: &(impl Fn(usize) + Sync)) {
    if threads <= 1 || n_items <= 1 {
        for i in 0..n_items {
            process(i);
        }
        return;
    }
    let workers = threads.min(n_items);
    let chunk_size = n_items.div_ceil(workers);
    let chunks: Vec<Chunk> = (0..workers)
        .map(|w| Chunk {
            next: AtomicUsize::new(w * chunk_size),
            end: ((w + 1) * chunk_size).min(n_items),
        })
        .collect();
    let chunks = &chunks;
    std::thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn(move || {
                let mut current = w;
                loop {
                    if let Some(i) = chunks[current].take() {
                        process(i);
                        continue;
                    }
                    // Own chunk drained: steal from the fullest victim.
                    let victim = (0..chunks.len())
                        .filter(|&v| v != current)
                        .max_by_key(|&v| chunks[v].remaining());
                    match victim {
                        Some(v) if chunks[v].remaining() > 0 => current = v,
                        _ => break,
                    }
                }
            });
        }
    });
}

fn aggregate(key: StackKey, model: &str, results: &[TestResult]) -> Vec<SweepRow> {
    let mut by_family: BTreeMap<&'static str, (usize, usize, usize)> = BTreeMap::new();
    // Preserve suite presentation order by first appearance.
    let mut order: Vec<&'static str> = Vec::new();
    for r in results {
        if !by_family.contains_key(r.family()) {
            order.push(r.family());
        }
        let entry = by_family.entry(r.family()).or_default();
        match r.classification() {
            Classification::Bug => entry.0 += 1,
            Classification::OverlyStrict => entry.1 += 1,
            Classification::Equivalent => entry.2 += 1,
        }
    }
    order
        .into_iter()
        .map(|family| {
            let (bugs, overly_strict, equivalent) = by_family[family];
            SweepRow {
                key,
                model: model.to_string(),
                family,
                bugs,
                overly_strict,
                equivalent,
            }
        })
        .collect()
}

/// Applies `f` to every item, splitting the work over `threads` OS
/// threads. Order of results matches the input order. (Used by the naive
/// per-cell path; the engine path schedules finer-grained items through
/// [`run_work_stealing`].)
pub(crate) fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut results: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(|| c.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        results = handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect();
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricheck_litmus::{suite, MemOrder};

    /// Runs one built-in study on the engine.
    fn run(sweep: &Sweep, spec: MatrixSpec, tests: &[LitmusTest]) -> SweepResults {
        sweep.run_matrix(tests, &spec.stacks())
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(&items, 7, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_threaded_fallback() {
        let items = vec![1, 2, 3];
        assert_eq!(parallel_map(&items, 1, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn work_stealing_processes_every_item_exactly_once() {
        for (n_items, threads) in [(0, 4), (1, 4), (7, 3), (100, 8), (64, 64), (13, 100)] {
            let counts: Vec<AtomicUsize> = (0..n_items).map(|_| AtomicUsize::new(0)).collect();
            run_work_stealing(n_items, threads, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "n_items={n_items} threads={threads}"
            );
        }
    }

    #[test]
    fn sweep_counts_wrc_bugs_on_nmm_curr_base() {
        // §6.1: 108 of the 243 WRC variants misbehave on each nMCA model
        // under the current Base ISA.
        let tests: Vec<_> = suite::wrc_template().instantiate_all().collect();
        let sweep = Sweep::new();
        let results = sweep.run_stack(
            &tests,
            riscv_mapping(RiscvIsa::Base, SpecVersion::Curr),
            &UarchModel::nmm(SpecVersion::Curr),
        );
        let bugs = results
            .iter()
            .filter(|r| r.classification() == Classification::Bug)
            .count();
        assert_eq!(bugs, 108);
    }

    #[test]
    fn sweep_counts_no_wrc_bugs_after_refinement() {
        let tests: Vec<_> = suite::wrc_template().instantiate_all().collect();
        let sweep = Sweep::new();
        let results = sweep.run_stack(
            &tests,
            riscv_mapping(RiscvIsa::Base, SpecVersion::Ours),
            &UarchModel::nmm(SpecVersion::Ours),
        );
        let bugs = results
            .iter()
            .filter(|r| r.classification() == Classification::Bug)
            .count();
        assert_eq!(bugs, 0);
    }

    #[test]
    fn aggregate_groups_by_family() {
        let tests = vec![
            suite::mp([MemOrder::Rlx; 4]),
            suite::mp([MemOrder::Sc; 4]),
            suite::sb([MemOrder::Rlx; 4]),
        ];
        let sweep = Sweep::new();
        let results = sweep.run_stack(
            &tests,
            riscv_mapping(RiscvIsa::Base, SpecVersion::Curr),
            &UarchModel::wr(SpecVersion::Curr),
        );
        let rows = aggregate(
            StackKey::riscv(RiscvIsa::Base, SpecVersion::Curr),
            "WR",
            &results,
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].family, "mp");
        assert_eq!(rows[0].total(), 2);
        assert_eq!(rows[1].family, "sb");
        assert_eq!(rows[1].total(), 1);
    }

    #[test]
    fn riscv_sweep_compiles_and_enumerates_exactly_once() {
        // The acceptance contract: one compile per (test, mapping), one
        // enumeration per distinct compiled program, across all 28 cells.
        let tests: Vec<_> = suite::mp_template().instantiate_all().collect();
        let results = run(&Sweep::new(), MatrixSpec::Riscv, &tests);
        let stats = results.stats();
        assert_eq!(stats.tests, tests.len());
        assert_eq!(stats.cells, 28);
        assert_eq!(
            stats.c11_evaluations,
            tests.len(),
            "one C11 verdict per test"
        );
        assert_eq!(
            stats.compile_calls,
            tests.len() * 4,
            "one compile per (test, mapping)"
        );
        assert_eq!(
            stats.compile_cache_hits,
            tests.len() * 28,
            "the reclaim pre-pass compiles the whole grid, so every cell \
             visit reuses a compiled program"
        );
        assert_eq!(
            stats.space_enumerations, stats.distinct_programs,
            "each distinct compiled program is enumerated exactly once"
        );
        // The intuitive and refined Base mappings agree on relaxed-only
        // code, so deduplication must find strictly fewer programs than
        // (test, mapping) pairs.
        assert!(stats.distinct_programs < stats.compile_calls);
        // Each mapping group judges a program in one fused stream: at
        // most one kernel prelude per (test, mapping), and every
        // judgement is either a stream's first or a prelude reuse.
        assert!(stats.prelude_misses > 0);
        assert!(stats.prelude_misses <= stats.compile_calls);
        assert_eq!(stats.compiled_kernels, 28, "one kernel per stack model");
    }

    #[test]
    fn power_sweep_compiles_and_enumerates_exactly_once_when_sharing() {
        // The §7 analogue of the acceptance contract under forced
        // sharing: one compile per (test, mapping) and one enumeration
        // per distinct Power program across all {mapping × model} cells.
        let tests: Vec<_> = suite::wrc_template().instantiate_all().collect();
        let opts = SweepOptions {
            space_sharing: SpaceSharing::Always,
            ..SweepOptions::default()
        };
        let results = run(&Sweep::with_options(opts), MatrixSpec::Power, &tests);
        let stats = results.stats();
        assert_eq!(stats.tests, tests.len());
        assert_eq!(stats.cells, 4);
        assert_eq!(stats.c11_evaluations, tests.len());
        assert_eq!(
            stats.compile_calls,
            tests.len() * 2,
            "one compile per (test, sync style)"
        );
        // The reclaim pre-pass compiles the whole grid up front, so
        // every cell visit is a compile-cache hit.
        assert_eq!(stats.compile_cache_hits, tests.len() * 4);
        assert_eq!(
            stats.space_enumerations, stats.distinct_programs,
            "each distinct Power program is enumerated exactly once"
        );
        // Leading- and trailing-sync agree on relaxed-only code, so
        // deduplication must find strictly fewer programs than pairs.
        assert!(stats.distinct_programs < stats.compile_calls);
    }

    #[test]
    fn power_sweep_streams_below_the_sharing_break_even() {
        // The 4-cell Power matrix averages 2 models per mapping — below
        // SHARING_BREAK_EVEN — so each mapping's fused judge streams its
        // programs: no spaces are materialized at all, and the rows
        // still match the shared-space run exactly.
        let tests: Vec<_> = suite::sb_template().instantiate_all().collect();
        let streamed = run(&Sweep::new(), MatrixSpec::Power, &tests);
        assert_eq!(
            streamed.stats().distinct_programs,
            0,
            "nothing materialized"
        );
        assert_eq!(streamed.stats().space_enumerations, 0);
        assert_eq!(streamed.stats().space_cache_hits, 0);
        // Compile and C11 sharing still hold on the streaming path.
        assert_eq!(streamed.stats().compile_calls, tests.len() * 2);
        assert_eq!(streamed.stats().c11_evaluations, tests.len());
        // One fused stream, not one per model, per (test, mapping).
        assert!(streamed.stats().prelude_misses <= streamed.stats().compile_calls);

        let shared = Sweep::with_options(SweepOptions {
            space_sharing: SpaceSharing::Always,
            ..SweepOptions::default()
        });
        let shared = run(&shared, MatrixSpec::Power, &tests);
        assert_eq!(streamed.rows(), shared.rows());
    }

    #[test]
    fn sharing_break_even_selects_by_models_per_mapping() {
        // RISC-V: 28 cells / 4 mappings = 7 models per mapping → shared
        // by default (the exactly-once test above relies on it); Power:
        // 4 / 2 = 2 → streamed. Pin the constant to the real matrices.
        let riscv = MatrixSpec::Riscv.stacks();
        let power = MatrixSpec::Power.stacks();
        assert_eq!(riscv.len(), 28);
        assert_eq!(power.len(), 4);
        assert!(riscv.len() / 4 >= SHARING_BREAK_EVEN, "Figure 15 shares");
        assert!(power.len() / 2 < SHARING_BREAK_EVEN, "§7 matrix streams");
    }

    #[test]
    fn x86_sweep_exposes_sb_only_under_the_relaxed_mapping() {
        let tests: Vec<_> = suite::sb_template().instantiate_all().collect();
        let results = run(&Sweep::new(), MatrixSpec::X86, &tests);
        let sc = StackKey {
            isa: "x86",
            variant: "sc-atomics",
        };
        let relaxed = StackKey {
            isa: "x86",
            variant: "relaxed",
        };
        assert_eq!(results.bugs_for(sc, "x86-TSO"), 0);
        assert_eq!(
            results.bugs_for(relaxed, "x86-TSO"),
            1,
            "exactly the all-SC store-buffering variant slips through"
        );
        let naive = Sweep::new().run_matrix_naive(&tests, &MatrixSpec::X86.stacks());
        assert_eq!(results.rows(), naive.rows());
    }

    #[test]
    fn x86_matrix_is_two_data_defined_cells() {
        let stacks = MatrixSpec::X86.stacks();
        assert_eq!(stacks.len(), 2);
        for stack in &stacks {
            assert_eq!(stack.key.isa, "x86");
            // The TSO model is IR-only: no relaxation config behind it.
            assert!(stack.model.config().is_none());
            assert_eq!(stack.model.ir().name(), "x86-TSO");
        }
        assert!(stacks.len() / 2 < SHARING_BREAK_EVEN, "x86 matrix streams");
        // The table title is the stack file's `title` line.
        assert_eq!(
            MatrixSpec::X86.title(),
            Some("x86 mapping study: C11 → x86 mappings on TSO")
        );
    }

    #[test]
    fn x86_study_shares_its_mappings_across_calls() {
        // The engine and the benchmark replay group stacks by mapping
        // identity: a second call must hand out the same tables.
        let (first, second) = (MatrixSpec::X86.stacks(), MatrixSpec::X86.stacks());
        for (a, b) in first.iter().zip(&second) {
            assert!(std::ptr::addr_eq(a.mapping, b.mapping));
        }
    }

    #[test]
    fn full_suite_pruning_is_transparent_and_nonzero() {
        // The acceptance contract of axiom-driven pruning on a family
        // with RMW-compiled stores: identical rows, identical
        // exactly-once counts, strictly fewer materialized candidates.
        let tests: Vec<_> = suite::corsdwi_template().instantiate_all().collect();
        let pruned = run(&Sweep::new(), MatrixSpec::Riscv, &tests);
        let unpruned = Sweep::with_options(SweepOptions {
            pruning: false,
            ..SweepOptions::default()
        });
        let unpruned = run(&unpruned, MatrixSpec::Riscv, &tests);
        assert_eq!(pruned.rows(), unpruned.rows());
        assert_eq!(
            pruned.stats().distinct_programs,
            unpruned.stats().distinct_programs
        );
        assert_eq!(
            pruned.stats().space_enumerations,
            unpruned.stats().space_enumerations
        );
        assert!(pruned.stats().candidates_pruned > 0);
        assert_eq!(unpruned.stats().candidates_pruned, 0);
    }

    #[test]
    fn riscv_sweep_is_deterministic_across_thread_counts() {
        let tests: Vec<_> = suite::sb_template().instantiate_all().collect();
        let serial = Sweep::with_options(SweepOptions::with_threads(1));
        let serial = run(&serial, MatrixSpec::Riscv, &tests);
        for threads in [2, 5] {
            let parallel = Sweep::with_options(SweepOptions::with_threads(threads));
            let parallel = run(&parallel, MatrixSpec::Riscv, &tests);
            assert_eq!(serial.rows(), parallel.rows(), "threads={threads}");
            assert_eq!(serial.stats(), parallel.stats(), "threads={threads}");
        }
    }

    #[test]
    fn engine_sweep_matches_naive_sweep_on_a_family() {
        let tests: Vec<_> = suite::corr_template().instantiate_all().collect();
        let sweep = Sweep::new();
        for spec in [MatrixSpec::Riscv, MatrixSpec::Power] {
            assert_eq!(
                run(&sweep, spec, &tests).rows(),
                sweep.run_matrix_naive(&tests, &spec.stacks()).rows(),
                "{spec:?}"
            );
        }
        assert_eq!(
            run(&sweep, MatrixSpec::Riscv, &tests).rows(),
            sweep.run_riscv_naive(&tests).rows()
        );
    }

    #[test]
    fn outcome_mode_agrees_with_target_mode_on_mp() {
        // For MP variants the target outcome is the only disputed one, so
        // the set-level check classifies every cell identically.
        let tests: Vec<_> = suite::mp_template().instantiate_all().collect();
        let target = run(&Sweep::new(), MatrixSpec::Riscv, &tests);
        let full = Sweep::with_options(SweepOptions {
            outcome_mode: OutcomeMode::FullOutcomes,
            ..SweepOptions::default()
        });
        let full = run(&full, MatrixSpec::Riscv, &tests);
        assert_eq!(target.rows(), full.rows());
        // And the exactly-once contract holds in outcome mode too.
        assert_eq!(
            full.stats().space_enumerations,
            full.stats().distinct_programs
        );
    }

    #[test]
    fn power_rows_carry_power_keys() {
        let tests = vec![suite::sb([MemOrder::Sc; 4])];
        let results = run(&Sweep::new(), MatrixSpec::Power, &tests);
        // Power rows must not masquerade as RISC-V.
        assert!(results.rows().iter().all(|r| r.key.isa == "Power"));
        // 2 styles × 2 models × 1 family.
        assert_eq!(results.rows().len(), 4);
        let labels: Vec<&str> = results.rows().iter().map(|r| r.key.variant).collect();
        assert!(labels.contains(&"leading-sync"));
        assert!(labels.contains(&"trailing-sync"));
    }
}
