//! The four workloads, their references, and one engine sweep of each
//! through the public API.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tricheck_core::{report, OutcomeMode, StoreStats, Sweep, SweepOptions, SweepStats};
use tricheck_dist::{run_sharded, DistOptions, MatrixSpec};
use tricheck_litmus::{suite, LitmusTest};
use tricheck_trace::{TraceConfig, TraceReport};

/// Worker threads of the in-process workloads, and shard processes of
/// `store_warm` (one thread each): the benchmark machine has two cores.
pub const PARALLELISM: usize = 2;

/// Environment variable naming the directory shard workers write their
/// peak resident set into (one file per worker, named by pid).
pub const RSS_DIR_ENV: &str = "PERFBENCH_RSS_DIR";

/// One benchmark workload. Each is a closed loop: one caller runs full
/// sweeps back to back and starts the next only when the previous one
/// returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Figure 15 in target mode: 1,701 tests × 28 RISC-V stacks over
    /// 6,537 distinct programs, about one candidate per space. Bound by
    /// the number of (space, model) streams.
    Fig15Target,
    /// The same matrix comparing full outcome sets: about ten candidates
    /// per stream, so the per-candidate check dominates.
    Fig15Outcomes,
    /// The §7 Power matrix plus the x86 matrix. Both fall below the
    /// sharing break-even, so the engine streams and never builds a
    /// shared space or touches a store.
    StudiesStream,
    /// The Figure 15 target matrix through `run_sharded` (2 shards × 1
    /// thread) over a disk store that set-up fills: store reads, the
    /// snapshot codec and the shard exchange.
    StoreWarm,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig15Target,
        Workload::Fig15Outcomes,
        Workload::StudiesStream,
        Workload::StoreWarm,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig15Target => "fig15_target",
            Workload::Fig15Outcomes => "fig15_outcomes",
            Workload::StudiesStream => "studies_stream",
            Workload::StoreWarm => "store_warm",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The equivalence the workload's sweeps check.
    #[must_use]
    pub fn outcome_mode(self) -> OutcomeMode {
        match self {
            Workload::Fig15Outcomes => OutcomeMode::FullOutcomes,
            _ => OutcomeMode::Target,
        }
    }

    /// The matrices one sweep runs, in order.
    #[must_use]
    pub fn matrices(self) -> &'static [MatrixSpec] {
        match self {
            Workload::StudiesStream => &[MatrixSpec::Power, MatrixSpec::X86],
            _ => &[MatrixSpec::Riscv],
        }
    }

    /// Shard processes (`None` for the in-process workloads).
    #[must_use]
    pub fn shards(self) -> Option<usize> {
        (self == Workload::StoreWarm).then_some(PARALLELISM)
    }

    /// Threads per process.
    #[must_use]
    pub fn threads(self) -> usize {
        match self.shards() {
            Some(_) => 1,
            None => PARALLELISM,
        }
    }

    /// (test × stack) verdicts one sweep over `tests` produces.
    #[must_use]
    pub fn verdicts_per_sweep(self, tests: usize) -> usize {
        self.matrices()
            .iter()
            .map(|spec| spec.stacks().len() * tests)
            .sum()
    }
}

/// The suite a run sweeps: the full 1,701 tests (or one family of them)
/// in an order shuffled by `seed`. Rows do not depend on test order.
#[must_use]
pub fn tests_for(seed: u64, family: Option<&str>) -> Vec<LitmusTest> {
    let mut tests: Vec<LitmusTest> = suite::full_suite()
        .into_iter()
        .filter(|t| family.is_none_or(|f| t.family() == f))
        .collect();
    crate::stats::shuffle(&mut tests, seed);
    tests
}

/// The file holding the reference rows of one matrix, relative to the
/// repository root. Target-mode rows are the engine's golden fixtures;
/// full-outcome rows were generated once by the naive per-cell oracle.
#[must_use]
pub fn reference_file(spec: MatrixSpec, mode: OutcomeMode) -> Option<&'static str> {
    match (spec, mode) {
        (MatrixSpec::Riscv, OutcomeMode::Target) => Some("tests/fixtures/figure15_rows.csv"),
        (MatrixSpec::Riscv, OutcomeMode::FullOutcomes) => {
            Some("perfbench/reference/fig15_outcomes_rows.csv")
        }
        (MatrixSpec::Power, OutcomeMode::Target) => Some("tests/fixtures/sec7_power_rows.txt"),
        (MatrixSpec::X86, OutcomeMode::Target) => Some("tests/fixtures/x86_tso_rows.txt"),
        _ => None,
    }
}

/// The CSV data rows (`isa,version,model,family,bugs,overly_strict,
/// equivalent,total`) in `text`, skipping headers and any rendered
/// tables around them, optionally restricted to one family.
#[must_use]
pub fn csv_rows(text: &str, family: Option<&str>) -> Vec<String> {
    text.lines()
        .filter(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            fields.len() == 8
                && fields[4].parse::<usize>().is_ok()
                && family.is_none_or(|f| fields[3] == f)
        })
        .map(str::to_string)
        .collect()
}

/// The sorted reference rows of every matrix of `workload`.
///
/// # Errors
///
/// A message naming the file that is missing or holds no rows.
pub fn reference_rows(
    root: &Path,
    workload: Workload,
    family: Option<&str>,
) -> Result<Vec<String>, String> {
    let mut rows = Vec::new();
    for &spec in workload.matrices() {
        let rel = reference_file(spec, workload.outcome_mode())
            .ok_or_else(|| format!("no reference for {spec:?}"))?;
        let text = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("reading reference {rel}: {e}"))?;
        let found = csv_rows(&text, family);
        if found.is_empty() {
            return Err(format!("reference {rel} holds no rows"));
        }
        rows.extend(found);
    }
    rows.sort();
    Ok(rows)
}

/// Compares a sweep's rows with the sorted reference, ignoring order.
///
/// # Errors
///
/// A message naming the first row that differs.
pub fn check_rows(mut rows: Vec<String>, reference: &[String]) -> Result<(), String> {
    rows.sort();
    if rows == reference {
        return Ok(());
    }
    let missing = reference.iter().find(|r| !rows.contains(r));
    let extra = rows.iter().find(|r| !reference.contains(r));
    Err(format!(
        "{} rows vs {} in the reference; first unmatched reference row {:?}, first unexpected row {:?}",
        rows.len(),
        reference.len(),
        missing,
        extra
    ))
}

/// Field-wise sum of two sweeps' counters (`tests` and `cells` add too:
/// a workload's sweep spans its matrices).
#[must_use]
pub fn add_stats(a: SweepStats, b: &SweepStats) -> SweepStats {
    SweepStats {
        tests: a.tests + b.tests,
        cells: a.cells + b.cells,
        c11_evaluations: a.c11_evaluations + b.c11_evaluations,
        compile_calls: a.compile_calls + b.compile_calls,
        compile_cache_hits: a.compile_cache_hits + b.compile_cache_hits,
        distinct_programs: a.distinct_programs + b.distinct_programs,
        space_cache_hits: a.space_cache_hits + b.space_cache_hits,
        space_enumerations: a.space_enumerations + b.space_enumerations,
        candidates_pruned: a.candidates_pruned + b.candidates_pruned,
        compiled_kernels: a.compiled_kernels + b.compiled_kernels,
        prelude_hits: a.prelude_hits + b.prelude_hits,
        prelude_misses: a.prelude_misses + b.prelude_misses,
    }
}

/// What one engine sweep produced.
pub struct EngineRun {
    /// CSV rows of every matrix, in the engine's order.
    pub rows: Vec<String>,
    /// Engine counters, summed over matrices and shards.
    pub stats: SweepStats,
    /// Store counters, summed over shards (zero without a store).
    pub store: StoreStats,
    /// The drained metrics report of a traced sweep (worker reports
    /// folded in for sharded runs).
    pub report: Option<TraceReport>,
    /// `run_sharded` wall time minus the slowest worker's busy time, for
    /// a traced sharded sweep.
    pub exchange_s: Option<f64>,
}

/// Runs one sweep of `workload` over `tests`. A sharded sweep uses the
/// disk store at `cache_dir`; `traced` runs it under a metrics session
/// (and asks shard workers for their reports).
///
/// # Errors
///
/// The engine's error for a failed sharded run.
pub fn engine_sweep(
    workload: Workload,
    tests: &[LitmusTest],
    cache_dir: Option<&Path>,
    rss_dir: Option<&Path>,
    traced: bool,
) -> Result<EngineRun, String> {
    if traced {
        tricheck_trace::start(TraceConfig::metrics());
    }
    let run = match workload.shards() {
        None => in_process(workload, tests),
        Some(shards) => sharded(workload, shards, tests, cache_dir, rss_dir, traced),
    };
    let report = traced.then(|| tricheck_trace::finish().report);
    let mut run = run?;
    if let Some(mut report) = report {
        for (name, value) in run.stats.as_counters() {
            report.set_counter(name, value);
        }
        if let Some(workers) = run.report.take() {
            for w in workers.workers {
                report.absorb_worker(w.shard, w.report);
            }
        }
        run.report = Some(report);
    }
    Ok(run)
}

fn in_process(workload: Workload, tests: &[LitmusTest]) -> Result<EngineRun, String> {
    let sweep = Sweep::with_options(SweepOptions {
        outcome_mode: workload.outcome_mode(),
        ..SweepOptions::with_threads(workload.threads())
    });
    let mut rows = Vec::new();
    let mut stats = SweepStats::default();
    for &spec in workload.matrices() {
        let results = sweep.run_matrix(tests, &spec.stacks());
        rows.extend(csv_rows(&report::to_csv(&results), None));
        stats = add_stats(stats, results.stats());
    }
    Ok(EngineRun {
        rows,
        stats,
        store: StoreStats::default(),
        report: None,
        exchange_s: None,
    })
}

fn sharded(
    workload: Workload,
    shards: usize,
    tests: &[LitmusTest],
    cache_dir: Option<&Path>,
    rss_dir: Option<&Path>,
    traced: bool,
) -> Result<EngineRun, String> {
    let opts = DistOptions {
        shards,
        threads: Some(workload.threads()),
        outcome_mode: workload.outcome_mode(),
        cache_dir: cache_dir.map(Path::to_path_buf),
        collect_trace: traced,
        worker_env: rss_dir
            .map(|d| vec![(RSS_DIR_ENV.to_string(), d.display().to_string())])
            .unwrap_or_default(),
        ..DistOptions::default()
    };
    let mut rows = Vec::new();
    let mut stats = SweepStats::default();
    let mut store = StoreStats::default();
    let mut workers = TraceReport::default();
    let mut exchange_s = None;
    for &spec in workload.matrices() {
        let start = Instant::now();
        let results = run_sharded(spec, tests, &opts).map_err(|e| e.to_string())?;
        let wall = start.elapsed().as_secs_f64();
        rows.extend(csv_rows(&report::to_csv(&results.results), None));
        stats = add_stats(stats, results.results.stats());
        store = store.merged(&results.store_stats());
        if traced {
            results.absorb_traces(&mut workers);
            let slowest = results
                .shards
                .iter()
                .filter_map(|s| s.trace.as_ref().map(TraceReport::busy_ns))
                .max()
                .unwrap_or(0);
            *exchange_s.get_or_insert(0.0) += wall - slowest as f64 * 1e-9;
        }
    }
    Ok(EngineRun {
        rows,
        stats,
        store,
        report: traced.then_some(workers),
        exchange_s,
    })
}

/// A fresh, empty directory at `path` (removing what was there).
///
/// # Errors
///
/// The I/O error, with the path.
pub fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("clearing {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}
