//! One benchmark run: set-up, the timed closed loop (or the traced
//! run), correctness checks, and the JSON record.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use tricheck_litmus::LitmusTest;
use tricheck_trace::TraceReport;

use crate::replay::{replay, Layer, Replay};
use crate::stats::{json_num, json_str, median, peak_rss_kb, tail};
use crate::workload::{
    add_stats, check_rows, engine_sweep, fresh_dir, reference_rows, tests_for, EngineRun, Workload,
};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Traced runs alternate untraced and traced sweeps at least this many
/// times each, even when the run's seconds are spent sooner.
pub const MIN_TRACE_PAIRS: usize = 2;

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the test-order shuffle.
    pub seed: u64,
    /// How long the timed loop (or the traced run's sweeps) runs.
    pub seconds: f64,
    /// Run the traced replay instead of the timed loop.
    pub trace: bool,
    /// Restrict the suite to one litmus family (for quick checks).
    pub family: Option<String>,
    /// The repository root the references are read from.
    pub root: PathBuf,
    /// Scratch directory for stores and worker reports.
    pub work_dir: PathBuf,
}

/// One named metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// One consistency check of the traced run.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was compared.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The compared values.
    pub detail: String,
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Record {
    /// The configuration that ran.
    pub config: Config,
    /// Tests per sweep.
    pub tests: usize,
    /// The store directory, on the sharded workload.
    pub cache_dir: Option<PathBuf>,
    /// Sweeps (and, traced, replays) attempted.
    pub attempted: usize,
    /// Attempts that panicked, errored, or produced wrong rows.
    pub failed: usize,
    /// Why each failed attempt failed.
    pub failures: Vec<String>,
    /// Successful timed sweeps behind the percentiles.
    pub timed_sweeps: usize,
    /// The percentile `sweep_s.tail` reports.
    pub tail_percentile: f64,
    /// Wall seconds of each successful timed sweep, in run order.
    pub sweep_seconds: Vec<f64>,
    /// Wall seconds of each set-up, in run order.
    pub setup_seconds: Vec<f64>,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// The traced run's checks.
    pub checks: Vec<Check>,
}

impl Record {
    /// Whether every sweep and every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The record as one line of JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let w = c.workload;
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\"family\":{},\
             \"threads\":{},\"shards\":{},\"outcome_mode\":{},\"tests\":{},\
             \"verdicts_per_sweep\":{},\"cache_dir\":{},\"correct\":{},\"attempted\":{},\
             \"failed\":{},\"setups\":{},\"timed_sweeps\":{},\"tail_percentile\":{},",
            json_str(w.name()),
            c.seed,
            u8::from(c.trace),
            json_num(c.seconds),
            c.family.as_deref().map_or("null".to_string(), json_str),
            w.threads(),
            w.shards().unwrap_or(0),
            json_str(match w.outcome_mode() {
                tricheck_core::OutcomeMode::Target => "target",
                tricheck_core::OutcomeMode::FullOutcomes => "full_outcomes",
            }),
            self.tests,
            w.verdicts_per_sweep(self.tests),
            self.cache_dir
                .as_deref()
                .map_or("null".to_string(), |p| json_str(&p.display().to_string())),
            self.correct(),
            self.attempted,
            self.failed,
            if c.trace { 1 } else { SETUPS },
            self.timed_sweeps,
            json_num(self.tail_percentile),
        );
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        let _ = write!(out, "\"failures\":[{}],", failures.join(","));
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|k| {
                format!(
                    "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                    json_str(&k.name),
                    k.ok,
                    json_str(&k.detail)
                )
            })
            .collect();
        let _ = write!(out, "\"checks\":[{}],", checks.join(","));
        let sweeps: Vec<String> = self.sweep_seconds.iter().map(|&s| json_num(s)).collect();
        let _ = write!(out, "\"sweep_seconds\":[{}],", sweeps.join(","));
        let setups: Vec<String> = self.setup_seconds.iter().map(|&s| json_num(s)).collect();
        let _ = write!(out, "\"setup_seconds\":[{}],", setups.join(","));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        let _ = write!(out, "\"metrics\":{{{}}}}}", metrics.join(","));
        out
    }
}

/// Counts sweeps and the reasons they failed.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failures: Vec<String>,
}

impl Tally {
    /// Runs one engine sweep, timing it and checking its rows. Returns
    /// the wall seconds and the run when the sweep succeeded.
    fn sweep(
        &mut self,
        ctx: &Ctx<'_>,
        tests: &[LitmusTest],
        traced: bool,
    ) -> Option<(f64, EngineRun)> {
        self.attempted += 1;
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            engine_sweep(
                ctx.workload,
                tests,
                ctx.cache_dir.as_deref(),
                ctx.rss_dir.as_deref(),
                traced,
            )
        }));
        let seconds = start.elapsed().as_secs_f64();
        let failure = match outcome {
            Err(_) => "sweep panicked".to_string(),
            Ok(Err(e)) => format!("sweep failed: {e}"),
            Ok(Ok(run)) => match check_rows(run.rows.clone(), ctx.reference) {
                Ok(()) => return Some((seconds, run)),
                Err(e) => format!("sweep rows differ from the reference: {e}"),
            },
        };
        self.failures.push(failure);
        None
    }
}

/// What every sweep of a run shares.
struct Ctx<'a> {
    workload: Workload,
    reference: &'a [String],
    cache_dir: Option<PathBuf>,
    rss_dir: Option<PathBuf>,
}

/// What one set-up leaves for the timed sweeps.
struct SetUp {
    seconds: f64,
    tests: Vec<LitmusTest>,
    reference: Vec<String>,
    /// The warm-up sweep, if it succeeded.
    warm: Option<EngineRun>,
}

/// One set-up: build the inputs, load the reference, and run the
/// untimed warm-up sweep (on `store_warm`, the cold fill of a fresh
/// store).
fn setup(
    cfg: &Config,
    cache_dir: Option<&Path>,
    rss_dir: Option<&Path>,
    tally: &mut Tally,
) -> Result<SetUp, String> {
    let start = Instant::now();
    let tests = tests_for(cfg.seed, cfg.family.as_deref());
    let reference = reference_rows(&cfg.root, cfg.workload, cfg.family.as_deref())?;
    let ctx = Ctx {
        workload: cfg.workload,
        reference: &reference,
        cache_dir: cache_dir.map(Path::to_path_buf),
        rss_dir: rss_dir.map(Path::to_path_buf),
    };
    let warm = tally.sweep(&ctx, &tests, false).map(|(_, run)| run);
    Ok(SetUp {
        seconds: start.elapsed().as_secs_f64(),
        tests,
        reference,
        warm,
    })
}

/// The directory under which a run's stores live; `run` clears it
/// before any timing.
fn store_root(cfg: &Config) -> PathBuf {
    cfg.work_dir.join(format!("store-{}", cfg.workload.name()))
}

/// Runs the configured workload and returns its record.
///
/// # Errors
///
/// A message when the run cannot start: a missing reference or an
/// unusable work directory.
pub fn run(cfg: &Config) -> Result<Record, String> {
    let workload = cfg.workload;
    let sharded = workload.shards().is_some();
    let store_root = sharded.then(|| store_root(cfg));
    let rss_dir = if sharded {
        Some(fresh_dir(&cfg.work_dir.join("worker-rss"))?)
    } else {
        None
    };
    if let Some(root) = &store_root {
        // Each set-up (and a traced run's replay) fills a store of its
        // own, and the stores of earlier runs go before any timing:
        // deleting thousands of just-written files stalls the next file
        // creations for seconds on a journaling filesystem, which would
        // time the disk instead of the program. `sync` flushes that
        // deletion first (best effort).
        fresh_dir(root)?;
        let _ = std::process::Command::new("sync").status();
    }
    let mut tally = Tally::default();
    let setups = if cfg.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut last = None;
    let mut cache_dir = None;
    for i in 0..setups {
        cache_dir = store_root.as_ref().map(|root| root.join(i.to_string()));
        let done = setup(cfg, cache_dir.as_deref(), rss_dir.as_deref(), &mut tally)?;
        setup_times.push(done.seconds);
        last = Some(done);
    }
    let SetUp {
        tests,
        reference,
        warm,
        ..
    } = last.expect("at least one set-up");
    let ctx = Ctx {
        workload,
        reference: &reference,
        cache_dir: cache_dir.clone(),
        rss_dir: rss_dir.clone(),
    };

    let mut record = Record {
        config: cfg.clone(),
        tests: tests.len(),
        cache_dir: cache_dir.clone(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        timed_sweeps: 0,
        tail_percentile: 0.0,
        sweep_seconds: Vec::new(),
        setup_seconds: setup_times.clone(),
        metrics: Vec::new(),
        checks: Vec::new(),
    };
    if cfg.trace {
        traced(cfg, &ctx, &tests, warm.as_ref(), &mut tally, &mut record)?;
    } else {
        let mut times = Vec::new();
        let start = Instant::now();
        loop {
            if let Some((secs, _)) = tally.sweep(&ctx, &tests, false) {
                times.push(secs);
            }
            if start.elapsed().as_secs_f64() >= cfg.seconds {
                break;
            }
        }
        record.timed_sweeps = times.len();
        record.sweep_seconds.clone_from(&times);
        let verdicts = workload.verdicts_per_sweep(tests.len()) as f64;
        let mut rss_kb = peak_rss_kb(Path::new("/proc/self/status")).unwrap_or(0);
        if let Some(dir) = &rss_dir {
            for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
                rss_kb = rss_kb.max(peak_rss_kb(&entry.path()).unwrap_or(0));
            }
        }
        let mut push = |name, value, unit| record.metrics.push(Metric { name, value, unit });
        if !times.is_empty() {
            let (tail_s, percentile) = tail(&times);
            push(
                "verdicts_per_s",
                verdicts * times.len() as f64 / times.iter().sum::<f64>(),
                "1/s",
            );
            push("sweep_s.p50", median(&times), "s");
            push("sweep_s.tail", tail_s, "s");
            record.tail_percentile = percentile;
        }
        push("setup_s", median(&setup_times), "s");
        push("peak_rss_mb", rss_kb as f64 * 1024.0 / 1e6, "MB");
        push(
            "failed_share",
            tally.failures.len() as f64 / tally.attempted as f64,
            "share",
        );
    }
    record.attempted = tally.attempted;
    record.failed = tally.failures.len();
    record.failures = tally.failures;
    Ok(record)
}

/// The traced run: alternating untraced and traced engine sweeps (for
/// the `core.*` shares and the tracing overhead), then the layer replay.
fn traced(
    cfg: &Config,
    ctx: &Ctx<'_>,
    tests: &[LitmusTest],
    warm: Option<&EngineRun>,
    tally: &mut Tally,
    record: &mut Record,
) -> Result<(), String> {
    let mut plain = Vec::new();
    let mut with_trace = Vec::new();
    let mut last = None;
    let start = Instant::now();
    let mut pair = 0;
    while pair < MIN_TRACE_PAIRS || start.elapsed().as_secs_f64() < cfg.seconds {
        // Alternate which side runs first so neither always runs warm.
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            if let Some((secs, run)) = tally.sweep(ctx, tests, traced) {
                if traced {
                    with_trace.push(secs);
                    last = Some(run);
                } else {
                    plain.push(secs);
                }
            }
        }
        pair += 1;
    }
    let Some(engine) = last else {
        return Ok(()); // every traced sweep failed: the tally says why
    };
    let report = engine
        .report
        .as_ref()
        .expect("traced sweeps carry a report");

    tally.attempted += 1;
    let replay_dir = store_root(cfg).join("replay");
    let (r, sweeps) = replay(cfg.workload, tests, &replay_dir)?;
    for (i, rows) in sweeps.into_iter().enumerate() {
        if let Err(e) = check_rows(rows, ctx.reference) {
            tally.failures.push(format!(
                "replayed sweep {i} rows differ from the reference: {e}"
            ));
        }
    }

    // The replay mirrors one sweep; on store_warm it also mirrors the
    // set-up's cold fill, so the engine side adds the fill's counters.
    let mut stats = engine.stats;
    if cfg.workload.shards().is_some() {
        let fill = warm.ok_or("the set-up fill failed; nothing to compare the replay with")?;
        stats = add_stats(stats, &fill.stats);
    }
    let mut check = |name: &str, replayed: usize, engine: usize| {
        record.checks.push(Check {
            name: name.to_string(),
            ok: replayed == engine,
            detail: format!("replay {replayed}, engine {engine}"),
        });
    };
    check(
        "litmus.spaces == distinct_programs",
        r.spaces,
        stats.distinct_programs,
    );
    check(
        "compiler.compiles == compile_calls",
        r.compiles,
        stats.compile_calls,
    );
    check(
        "c11.evals == c11_evaluations",
        r.c11_evals,
        stats.c11_evaluations,
    );
    check(
        "rel.kernels == compiled_kernels",
        r.kernels,
        stats.compiled_kernels,
    );
    if cfg.workload.shards().is_none() {
        // A store fill's pruning count depends on which shard saved a
        // shared program first, so it is compared on the other workloads.
        check(
            "litmus.pruned_branches == candidates_pruned",
            r.pruned_branches,
            stats.candidates_pruned,
        );
    }

    record.metrics = layer_metrics(&r, report, &engine, &plain, &with_trace);
    // Liveness is a property of the workload's full suite: one family
    // may not reach every mechanism (pruning only cuts RMW shapes).
    let live = if cfg.family.is_none() {
        live_metrics(cfg.workload)
    } else {
        Vec::new()
    };
    for name in live {
        let value = record
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        record.checks.push(Check {
            name: format!("{name} is live"),
            ok: value != 0.0,
            detail: format!("{value}"),
        });
    }
    record.timed_sweeps = plain.len() + with_trace.len();
    Ok(())
}

fn layer_metrics(
    r: &Replay,
    report: &TraceReport,
    engine: &EngineRun,
    plain: &[f64],
    with_trace: &[f64],
) -> Vec<Metric> {
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let busy = report.busy_ns() as f64;
    let phase = |name: &str| report.phase(name).map_or((0, 0), |p| (p.total_ns, p.count));
    let share = |name: &str| ratio(phase(name).0 as f64, busy);
    let checked = phase("candidate_check").1 as f64;
    let streams = phase("prelude_eval").1 as f64;
    let overhead = if plain.is_empty() || with_trace.is_empty() {
        0.0
    } else {
        median(with_trace) / median(plain) - 1.0
    };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("litmus.enum_s", r.seconds(Layer::Enum), "s"),
        m("litmus.spaces", r.spaces as f64, "count"),
        m("litmus.candidates", r.candidates as f64, "count"),
        m(
            "litmus.candidates_per_space",
            ratio(r.candidates as f64, r.spaces as f64),
            "count",
        ),
        m("litmus.pruned_branches", r.pruned_branches as f64, "count"),
        m("litmus.decode_s", r.seconds(Layer::Decode), "s"),
        m("litmus.snapshot_bytes", r.snapshot_bytes as f64, "bytes"),
        m("c11.eval_s", r.seconds(Layer::C11), "s"),
        m("c11.evals", r.c11_evals as f64, "count"),
        m("compiler.compile_s", r.seconds(Layer::Compile), "s"),
        m("compiler.compiles", r.compiles as f64, "count"),
        m(
            "compiler.dedup_ratio",
            ratio(r.distinct_programs as f64, r.compiles as f64),
            "ratio",
        ),
        m("rel.kernel_compile_s", r.seconds(Layer::KernelCompile), "s"),
        m("rel.kernels", r.kernels as f64, "count"),
        m("uarch.judge_s", r.seconds(Layer::Judge), "s"),
        m("uarch.streams", r.streams as f64, "count"),
        m("uarch.stream_s", r.seconds(Layer::Stream), "s"),
        m("core.cell_self_share", share("cell"), "share"),
        m("core.prelude_share", share("prelude_eval"), "share"),
        m("core.check_share", share("candidate_check"), "share"),
        m("core.space_enum_share", share("space_enum"), "share"),
        m("core.c11_share", share("c11_eval"), "share"),
        m("core.teardown_share", share("teardown"), "share"),
        m("core.candidates_checked", checked, "count"),
        m(
            "core.candidates_per_stream",
            ratio(checked, streams),
            "count",
        ),
        m(
            "core.space_cache_hits",
            engine.stats.space_cache_hits as f64,
            "count",
        ),
        m(
            "core.compile_cache_hits",
            engine.stats.compile_cache_hits as f64,
            "count",
        ),
        m(
            "core.distinct_programs",
            engine.stats.distinct_programs as f64,
            "count",
        ),
        m("dist.load_s", r.seconds(Layer::Load), "s"),
        m("dist.space_hits", r.store.space_hits as f64, "count"),
        m("dist.space_misses", r.store.space_misses as f64, "count"),
        m("dist.c11_hits", r.store.c11_hits as f64, "count"),
        m("dist.save_s", r.seconds(Layer::Save), "s"),
        m("dist.writes", r.store.writes as f64, "count"),
        m("dist.bytes_written", r.bytes_written as f64, "bytes"),
        m("dist.exchange_s", engine.exchange_s.unwrap_or(0.0), "s"),
        m("trace.overhead_share", overhead, "share"),
    ]
}

/// The per-layer metrics whose mechanism runs on `workload`, which must
/// therefore read nonzero there.
#[must_use]
pub fn live_metrics(workload: Workload) -> Vec<&'static str> {
    let mut live = vec![
        "c11.eval_s",
        "c11.evals",
        "compiler.compile_s",
        "compiler.compiles",
        "compiler.dedup_ratio",
        "rel.kernel_compile_s",
        "rel.kernels",
        "core.cell_self_share",
        "core.prelude_share",
        "core.check_share",
        "core.teardown_share",
        "core.candidates_checked",
        "core.candidates_per_stream",
        "core.compile_cache_hits",
    ];
    if workload != Workload::StudiesStream {
        live.extend([
            "litmus.enum_s",
            "litmus.spaces",
            "litmus.candidates",
            "litmus.candidates_per_space",
            "uarch.judge_s",
            "uarch.streams",
            "core.space_cache_hits",
            "core.distinct_programs",
        ]);
    }
    match workload {
        Workload::Fig15Target | Workload::Fig15Outcomes => {
            live.extend([
                "litmus.pruned_branches",
                "core.space_enum_share",
                "core.c11_share",
            ]);
        }
        Workload::StudiesStream => live.extend(["uarch.stream_s", "core.c11_share"]),
        Workload::StoreWarm => live.extend([
            "litmus.decode_s",
            "litmus.snapshot_bytes",
            "dist.load_s",
            "dist.space_hits",
            "dist.space_misses",
            "dist.c11_hits",
            "dist.save_s",
            "dist.writes",
            "dist.bytes_written",
            "dist.exchange_s",
        ]),
    }
    live
}
