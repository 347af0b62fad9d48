//! `tricheck` — the command-line interface to the full-stack verifier.
//!
//! ```text
//! tricheck list [FAMILY]                      list suite tests (optionally one family)
//! tricheck show NAME                          print a test: program, target, C11 verdict
//! tricheck compile NAME [--isa B] [--spec V]  print the compiled RISC-V program
//! tricheck verify NAME [--model M] [--isa B] [--spec V]
//!                                             run the full toolflow on one test
//! tricheck diagnose NAME [--model M] [--isa B] [--spec V]
//!                                             verify + witness / per-axiom analysis
//! tricheck dot NAME [--model M] [--isa B] [--spec V]
//!                                             emit a Graphviz graph of the witness
//! tricheck sweep [FAMILY] [--threads N] [--cache-stats] [--outcomes] [--power]
//!                [--x86] [--shards N] [--cache-dir PATH]
//!                [--metrics-json FILE] [--progress] [--trace FILE]
//!                [--model FILE | --stack FILE]
//!                                             Figure-15-style chart for a family
//! tricheck file PATH [--model M] [--isa B] [--spec V]
//!                                             parse a .litmus file and verify it
//! tricheck lint FILE [--json] [--deny-warnings]
//!                                             static-analysis pass over a model or
//!                                             stack file (exit 1 on errors, 2 on
//!                                             warnings under --deny-warnings)
//!
//! Every option is checked against the subcommand it is given to:
//! unknown `--flags` and flags that do not apply to the subcommand are
//! rejected with an error naming the flag, never silently ignored.
//!
//! options: --isa base|base+a    (default base)
//!          --spec curr|ours     (default curr)
//!          --model WR|rWR|rWM|rMM|nWR|nMM|A9like   (default nMM)
//!                               or a path to a herd-style model file
//!                               (see `models/x86-tso.cat`); for `sweep`
//!                               the value must be a model file, which is
//!                               judged under all four C11→RISC-V
//!                               mappings
//!          --stack FILE         (sweep only) load a whole-stack
//!                               definition file — compiler mapping
//!                               tables plus a model section (see
//!                               `models/x86-tso.stack`) — and sweep the
//!                               family through it
//!          --threads N          sweep worker threads (default: all cores;
//!                               1 = deterministic serial run; with
//!                               --shards, threads *per shard*, default
//!                               cores / shards)
//!          --cache-stats        print the shared-engine cache counters
//!                               after a sweep (plus persistent-store
//!                               counters when --cache-dir is set)
//!          --outcomes           sweep in full-outcome-set mode: compare
//!                               every C11-permitted outcome with every
//!                               µarch-observable one, not just the target
//!          --power              sweep the §7 compiler study instead of
//!                               Figure 15: {leading-sync, trailing-sync}
//!                               C11→Power mappings × the ARMv7 models
//!          --shards N           deal the sweep across N worker processes
//!                               by program fingerprint range (1 = run
//!                               in-process, no spawning)
//!          --cache-dir PATH     persist execution spaces and C11 verdicts
//!                               in PATH (created if missing) so repeated
//!                               sweeps skip enumeration; shared by all
//!                               shards
//!          --metrics-json FILE  write the structured sweep metrics report
//!                               (tricheck-metrics/v1 JSON: per-phase
//!                               timings with p50/p95/max, counters,
//!                               per-group and per-worker breakdowns)
//!          --progress           live progress line on stderr (tests
//!                               done/total, current phase, ETA); stdout
//!                               output is untouched
//!          --trace FILE         write a chrome://tracing JSON timeline of
//!                               every recorded span
//!          --json               (lint only) emit the report as a
//!                               tricheck-lint/v1 JSON document on stdout
//!          --deny-warnings      (lint only) exit 2 when warnings remain
//!          --allow-lint-errors  (sweep only) sweep a --model/--stack file
//!                               even when the lint pass finds error-level
//!                               defects (statically-empty relations,
//!                               vacuous axioms)
//! ```
//!
//! There is also a hidden `shard-worker` subcommand — the child half of
//! the `--shards` protocol (job on stdin, result on stdout). It is an
//! implementation detail of `tricheck-dist`, not a user command.

use std::io::{self, Write};
use std::process::ExitCode;

use tricheck::core::explain::diagnose;
use tricheck::core::report;
use tricheck::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let result = run(&args, &mut out).and_then(|code| {
        out.flush()?;
        Ok(code)
    });
    match result {
        Ok(code) => ExitCode::from(code),
        Err(Failure::ReaderGone) => ExitCode::SUCCESS,
        Err(Failure::Error(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command ended without an exit code of its own.
#[derive(Debug)]
enum Failure {
    /// A usage, input or run error, reported with the usage text.
    Error(String),
    /// The reader of stdout went away (`tricheck list | head -3`). Not
    /// an error: nobody is left to print for, so the command ends
    /// quietly and successfully.
    ReaderGone,
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Error(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Error(msg.to_string())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::BrokenPipe {
            Failure::ReaderGone
        } else {
            Failure::Error(format!("writing output: {e}"))
        }
    }
}

const USAGE: &str = "usage:
  tricheck list [FAMILY]
  tricheck show NAME
  tricheck compile NAME [--isa base|base+a] [--spec curr|ours]
  tricheck verify NAME [--model M] [--isa base|base+a] [--spec curr|ours]
  tricheck diagnose NAME [--model M] [--isa base|base+a] [--spec curr|ours]
  tricheck dot NAME [--model M] [--isa base|base+a] [--spec curr|ours]
  tricheck sweep [FAMILY] [--threads N] [--cache-stats] [--outcomes] [--power]
                 [--x86] [--shards N] [--cache-dir PATH]
                 [--metrics-json FILE] [--progress] [--trace FILE]
                 [--model FILE | --stack FILE]
  tricheck sweep --list-models [--stack FILE]
  tricheck file PATH [--model M] [--isa base|base+a] [--spec curr|ours]
  tricheck lint FILE [--json] [--deny-warnings]
  tricheck help | --help | -h

models: WR rWR rWM rMM nWR nMM A9like (default nMM), or a path to a
        herd-style model file (models/x86-tso.cat is a worked example);
        sweep only accepts the file form, judging it under all four
        C11→RISC-V mappings
stacks: sweep --stack FILE loads a whole-stack definition file — named
        compiler-mapping tables plus a model section (models/x86-tso.stack
        is a worked example) — and sweeps the family through every
        mapping it defines
sweeps: --threads 1 gives a deterministic serial run; --cache-stats prints
        the shared execution-space engine's cache counters; --outcomes
        compares full outcome sets instead of the target outcome (the
        stronger verify_full equivalence, at witness-mode cost); --power
        runs the §7 compiler study ({leading,trailing}-sync C11→Power
        mappings on the ARMv7 models) instead of the RISC-V Figure 15;
        --x86 runs the x86 study ({sc-atomics,relaxed} C11→x86 mappings
        on the IR-defined TSO model); --list-models prints every
        registered stack (ISA, mapping, model, IR axioms) and exits;
        --shards N deals the sweep across N worker processes (1 = in
        process); --cache-dir PATH persists execution spaces and C11
        verdicts across runs (and across shards); --metrics-json FILE
        writes the structured tricheck-metrics/v1 report; --progress
        renders a live stderr progress line; --trace FILE writes a
        chrome://tracing timeline
lint:   runs the semantic static-analysis pass (E001/E002 statically-empty
        relations and vacuous axioms, W001-W004 dead definitions, subsumed
        axioms, shadow-adjacent names, unreachable mapping rows) over a
        model or stack file; --json emits a tricheck-lint/v1 document;
        --deny-warnings makes warnings exit 2; sweep --model/--stack runs
        the same pass and refuses error-level findings unless
        --allow-lint-errors is given";

/// Every option the CLI knows about, in the order the usage text lists
/// them. Used both to reject unknown `--flags` (with a nearest-match
/// hint) and to check per-subcommand applicability.
const ALL_FLAGS: &[&str] = &[
    "--isa",
    "--spec",
    "--model",
    "--stack",
    "--threads",
    "--cache-stats",
    "--outcomes",
    "--power",
    "--x86",
    "--list-models",
    "--shards",
    "--cache-dir",
    "--metrics-json",
    "--progress",
    "--trace",
    "--json",
    "--deny-warnings",
    "--allow-lint-errors",
];

#[derive(Debug)]
struct Options {
    isa: RiscvIsa,
    spec: SpecVersion,
    model: String,
    stack: Option<String>,
    threads: Option<usize>,
    cache_stats: bool,
    outcomes: bool,
    power: bool,
    x86: bool,
    list_models: bool,
    shards: Option<usize>,
    cache_dir: Option<String>,
    metrics_json: Option<String>,
    progress: bool,
    trace_out: Option<String>,
    json: bool,
    deny_warnings: bool,
    allow_lint_errors: bool,
    /// The flags actually given on the command line (canonical
    /// spellings), so subcommands can reject the ones that do not apply
    /// to them instead of silently ignoring them.
    given: Vec<&'static str>,
}

impl Options {
    fn was_given(&self, flag: &str) -> bool {
        self.given.contains(&flag)
    }
}

fn parse_options(args: &[String]) -> Result<(Vec<&String>, Options), String> {
    let mut opts = Options {
        isa: RiscvIsa::Base,
        spec: SpecVersion::Curr,
        model: "nMM".to_string(),
        stack: None,
        threads: None,
        cache_stats: false,
        outcomes: false,
        power: false,
        x86: false,
        list_models: false,
        shards: None,
        cache_dir: None,
        metrics_json: None,
        progress: false,
        trace_out: None,
        json: false,
        deny_warnings: false,
        allow_lint_errors: false,
        given: Vec::new(),
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(flag) = ALL_FLAGS.iter().find(|f| **f == arg.as_str()) {
            opts.given.push(flag);
        }
        match arg.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count '{v}'"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                opts.threads = Some(n);
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad shard count '{v}'"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                opts.shards = Some(n);
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a path")?;
                opts.cache_dir = Some(v.clone());
            }
            "--metrics-json" => {
                let v = it.next().ok_or("--metrics-json needs a file path")?;
                opts.metrics_json = Some(v.clone());
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a file path")?;
                opts.trace_out = Some(v.clone());
            }
            "--progress" => opts.progress = true,
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--allow-lint-errors" => opts.allow_lint_errors = true,
            "--cache-stats" => opts.cache_stats = true,
            "--outcomes" => opts.outcomes = true,
            "--power" => opts.power = true,
            "--x86" => opts.x86 = true,
            "--list-models" => opts.list_models = true,
            "--isa" => {
                let v = it.next().ok_or("--isa needs a value")?;
                opts.isa = match v.to_lowercase().as_str() {
                    "base" => RiscvIsa::Base,
                    "base+a" | "basea" | "base-a" => RiscvIsa::BaseA,
                    other => return Err(format!("unknown ISA '{other}'")),
                };
            }
            "--spec" => {
                let v = it.next().ok_or("--spec needs a value")?;
                opts.spec = match v.to_lowercase().as_str() {
                    "curr" | "current" => SpecVersion::Curr,
                    "ours" | "refined" => SpecVersion::Ours,
                    other => return Err(format!("unknown spec version '{other}'")),
                };
            }
            "--model" => {
                opts.model = it.next().ok_or("--model needs a value")?.clone();
            }
            "--stack" => {
                opts.stack = Some(it.next().ok_or("--stack needs a file path")?.clone());
            }
            other if other.starts_with("--") => return Err(unknown_flag(other)),
            _ => positional.push(arg),
        }
    }
    Ok((positional, opts))
}

/// The rejection message for a `--flag` the CLI does not know, with a
/// nearest-match hint when the typo is close to a real option.
fn unknown_flag(flag: &str) -> String {
    let nearest = ALL_FLAGS
        .iter()
        .map(|known| (edit_distance(flag, known), known))
        .min()
        .filter(|(d, _)| *d <= 3);
    match nearest {
        Some((_, known)) => format!("unknown option '{flag}' (did you mean '{known}'?)"),
        None => format!("unknown option '{flag}'"),
    }
}

/// Levenshtein distance, for the `unknown_flag` hint.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            row.push(subst.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// Rejects options that do not apply to the given subcommand. Flags are
/// parsed globally (so `--model` can mean a µarch model for `verify` and
/// a model file for `sweep`), but each subcommand only accepts its own
/// set — anything else errors instead of being silently ignored.
fn check_flags_apply(command: &str, opts: &Options) -> Result<(), String> {
    let allowed: &[&str] = match command {
        "compile" => &["--isa", "--spec"],
        "verify" | "diagnose" | "dot" | "file" => &["--model", "--isa", "--spec"],
        "lint" => &["--json", "--deny-warnings"],
        // The catalog lists the built-in studies plus the files it is
        // given; the flags that select or run a sweep do not apply.
        "sweep" if opts.list_models => {
            &["--list-models", "--stack", "--model", "--allow-lint-errors"]
        }
        "sweep" => &[
            "--model",
            "--stack",
            "--threads",
            "--cache-stats",
            "--outcomes",
            "--power",
            "--x86",
            "--shards",
            "--cache-dir",
            "--metrics-json",
            "--progress",
            "--trace",
            "--allow-lint-errors",
        ],
        // list, show, shard-worker take no options.
        "list" | "show" | "shard-worker" => &[],
        // An unknown command: let the dispatcher report it as such.
        _ => return Ok(()),
    };
    let name = match command {
        "sweep" if opts.list_models => "sweep --list-models",
        _ => command,
    };
    for flag in &opts.given {
        if !allowed.contains(flag) {
            return Err(format!("'{flag}' does not apply to the '{name}' command"));
        }
    }
    // A sweep loads at most one file; a second would silently replace
    // the first.
    for flag in ["--stack", "--model"] {
        if command == "sweep" && opts.given.iter().filter(|f| **f == flag).count() > 1 {
            return Err(format!(
                "'{flag}' given more than once: a sweep loads one stack or model file"
            ));
        }
    }
    Ok(())
}

fn model_by_name(name: &str, spec: SpecVersion) -> Result<UarchModel, String> {
    let model = match name.to_lowercase().as_str() {
        "wr" => UarchModel::wr(spec),
        "rwr" => UarchModel::rwr(spec),
        "rwm" => UarchModel::rwm(spec),
        "rmm" => UarchModel::rmm(spec),
        "nwr" => UarchModel::nwr(spec),
        "nmm" => UarchModel::nmm(spec),
        "a9like" | "a9" => UarchModel::a9like(spec),
        other => {
            return Err(format!(
                "unknown model '{other}' (expected one of WR rWR rWM rMM nWR nMM A9like, \
                 or a path to a model file)"
            ))
        }
    };
    Ok(model)
}

/// Resolves `--model` for the single-test commands: a value naming an
/// existing file is parsed as a herd-style model file; anything else is
/// looked up as a built-in µarch model name.
fn resolve_model(opts: &Options) -> Result<UarchModel, String> {
    let path = std::path::Path::new(&opts.model);
    if path.is_file() {
        let ir = tricheck::core::load_model_file(path).map_err(|e| e.to_string())?;
        Ok(UarchModel::from_ir(ir))
    } else {
        model_by_name(&opts.model, opts.spec)
    }
}

fn find_test(name: &str) -> Result<LitmusTest, String> {
    // Named figure tests first, then the full generated suite.
    let named = [
        suite::fig3_wrc(),
        suite::fig4_iriw_sc(),
        suite::fig11_mp_roach_motel(),
        suite::fig13_mp_lazy(),
    ];
    if let Some(t) = named.iter().find(|t| t.name() == name) {
        return Ok(t.clone());
    }
    suite::full_suite()
        .into_iter()
        .find(|t| t.name() == name)
        .ok_or_else(|| format!("no litmus test named '{name}' (try `tricheck list`)"))
}

fn format_c11_program(test: &LitmusTest) -> String {
    use tricheck::litmus::{Expr, Instr, Loc};
    let mut out = String::new();
    for (tid, thread) in test.program().threads().iter().enumerate() {
        out.push_str(&format!("T{tid}:\n"));
        for instr in thread {
            let line = match instr {
                Instr::Read { dst, addr, ann } => match addr {
                    Expr::Const(a) => format!("{dst} = ld({}, {ann})", Loc(*a)),
                    Expr::Reg(r) => format!("{dst} = ld([{r}], {ann})"),
                },
                Instr::Write { addr, val, ann } => match addr {
                    Expr::Const(a) => format!("st({}, {val}, {ann})", Loc(*a)),
                    Expr::Reg(r) => format!("st([{r}], {val}, {ann})"),
                },
                Instr::Rmw { dst, addr, ann, .. } => match addr {
                    Expr::Const(a) => format!("{dst} = rmw({}, {ann})", Loc(*a)),
                    Expr::Reg(r) => format!("{dst} = rmw([{r}], {ann})"),
                },
                Instr::Fence { ann } => format!("fence({ann})"),
            };
            out.push_str("  ");
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Runs one command, writing its output to `out`.
fn run(args: &[String], out: &mut dyn Write) -> Result<u8, Failure> {
    // `help`, `--help` and `-h` print the usage and succeed, with or
    // without a command (`tricheck sweep --help`).
    if args.first().is_some_and(|a| a == "help") || args.iter().any(|a| a == "--help" || a == "-h")
    {
        writeln!(out, "{USAGE}")?;
        return Ok(0);
    }
    let (positional, opts) = parse_options(args)?;
    let mut pos = positional.into_iter();
    let command = pos.next().map(String::as_str).ok_or("no command given")?;
    check_flags_apply(command, &opts)?;
    match command {
        "list" => {
            let family = pos.next().cloned();
            let mut count = 0;
            for t in suite::full_suite() {
                if family.as_deref().is_none_or(|f| t.family() == f) {
                    writeln!(out, "{}", t.name())?;
                    count += 1;
                }
            }
            eprintln!("({count} tests)");
            Ok(0)
        }
        "show" => {
            let name = pos.next().ok_or("show needs a test name")?;
            let test = find_test(name)?;
            writeln!(out, "{}", format_c11_program(&test))?;
            writeln!(out, "target outcome: {}", test.target())?;
            let c11 = C11Model::new();
            writeln!(
                out,
                "C11 verdict: {}",
                match c11.judge(&test) {
                    C11Verdict::Permitted => "permitted",
                    C11Verdict::Forbidden => "forbidden",
                }
            )?;
            Ok(0)
        }
        "compile" => {
            let name = pos.next().ok_or("compile needs a test name")?;
            let test = find_test(name)?;
            let mapping = riscv_mapping(opts.isa, opts.spec);
            let compiled = compile(&test, mapping).map_err(|e| e.to_string())?;
            writeln!(out, "mapping: {}", mapping.name())?;
            write!(out, "{}", format_program(compiled.program(), Asm::RiscV))?;
            Ok(0)
        }
        "verify" => {
            let name = pos.next().ok_or("verify needs a test name")?;
            let test = find_test(name)?;
            let mapping = riscv_mapping(opts.isa, opts.spec);
            let model = resolve_model(&opts)?;
            let stack = TriCheck::new(mapping, model);
            let result = stack.verify(&test).map_err(|e| e.to_string())?;
            writeln!(out, "{result}")?;
            Ok(0)
        }
        "diagnose" => {
            let name = pos.next().ok_or("diagnose needs a test name")?;
            let test = find_test(name)?;
            let mapping = riscv_mapping(opts.isa, opts.spec);
            let model = resolve_model(&opts)?;
            let d = diagnose(mapping, &model, &test).map_err(|e| e.to_string())?;
            write!(out, "{d}")?;
            Ok(0)
        }
        "dot" => {
            let name = pos.next().ok_or("dot needs a test name")?;
            let test = find_test(name)?;
            let mapping = riscv_mapping(opts.isa, opts.spec);
            let model = resolve_model(&opts)?;
            let d = diagnose(mapping, &model, &test).map_err(|e| e.to_string())?;
            match d.witness_dot {
                Some(dot) => {
                    write!(out, "{dot}")?;
                    Ok(0)
                }
                None => Err(format!(
                    "target outcome of '{name}' is not observable on {} — no witness to draw",
                    opts.model
                )
                .into()),
            }
        }
        "file" => {
            let path = pos.next().ok_or("file needs a path")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let test = tricheck::litmus::format::parse_litmus(&text).map_err(|e| e.to_string())?;
            writeln!(out, "{}", format_c11_program(&test))?;
            writeln!(out, "target outcome: {}", test.target())?;
            let mapping = riscv_mapping(opts.isa, opts.spec);
            let model = resolve_model(&opts)?;
            let d = diagnose(mapping, &model, &test).map_err(|e| e.to_string())?;
            write!(out, "{d}")?;
            Ok(0)
        }
        "lint" => {
            let path = pos.next().ok_or("lint needs a model or stack file path")?;
            let (origin, diags, rules) =
                tricheck::core::lint_path(std::path::Path::new(path)).map_err(|e| e.to_string())?;
            let errors = diags
                .iter()
                .filter(|d| d.severity == tricheck::rel::lint::Severity::Error)
                .count();
            let warnings = diags.len() - errors;
            if opts.json {
                writeln!(out, "{}", lint_json(&origin, rules, &diags))?;
            } else {
                for d in &diags {
                    eprintln!("{origin}:{d}");
                }
                if diags.is_empty() {
                    writeln!(out, "{origin}: clean ({rules} rules checked)")?;
                } else {
                    writeln!(
                        out,
                        "{origin}: {errors} error(s), {warnings} warning(s) \
                         ({rules} rules checked)"
                    )?;
                }
            }
            if errors > 0 {
                Ok(1)
            } else if opts.deny_warnings && warnings > 0 {
                Ok(2)
            } else {
                Ok(0)
            }
        }
        "sweep" => {
            // Runtime-loaded stacks and models, checked before anything
            // else so `--list-models` can catalog them too.
            if opts.stack.is_some() && opts.was_given("--model") {
                return Err(
                    "--stack and --model cannot be combined: a stack file already \
                     names its model"
                        .into(),
                );
            }
            let mut lint_counters: Option<(u64, u64)> = None;
            let loaded = match &opts.stack {
                Some(path) => {
                    let loaded = tricheck::core::load_stack_file(std::path::Path::new(path))
                        .map_err(|e| e.to_string())?;
                    gate_lints(&loaded.origin, &loaded.lints, opts.allow_lint_errors)?;
                    lint_counters = Some((loaded.rules_checked as u64, loaded.lints.len() as u64));
                    Some(loaded)
                }
                None => None,
            };
            let model_stacks = if opts.was_given("--model") {
                let path = std::path::Path::new(&opts.model);
                if !path.is_file() {
                    return Err(format!(
                        "sweep --model takes a path to a model file, and '{}' is not \
                         a file (built-in µarch model names apply to \
                         verify/diagnose/dot/file)",
                        opts.model
                    )
                    .into());
                }
                let (ir, diags) =
                    tricheck::core::load_model_file_linted(path).map_err(|e| e.to_string())?;
                gate_lints(&opts.model, &diags, opts.allow_lint_errors)?;
                lint_counters = Some((tricheck::rel::lint::MODEL_RULES as u64, diags.len() as u64));
                Some((ir.name().to_string(), tricheck::core::stacks_for_model(&ir)))
            } else {
                None
            };
            if opts.list_models {
                let mut extra: Vec<(String, &[MatrixStack<'_>])> = Vec::new();
                if let Some(loaded) = &loaded {
                    let title = format!("{} (loaded from {})", loaded.name, loaded.origin);
                    extra.push((title, &loaded.stacks));
                }
                if let Some((name, stacks)) = &model_stacks {
                    extra.push((format!("{name} (loaded from {})", opts.model), stacks));
                }
                write!(out, "{}", list_models(&extra))?;
                return Ok(0);
            }
            let custom = loaded.is_some() || model_stacks.is_some();
            if custom && (opts.power || opts.x86) {
                return Err(
                    "--power/--x86 select built-in matrices and cannot be combined \
                     with --stack or --model FILE"
                        .into(),
                );
            }
            let sharded = opts.shards.is_some() || opts.cache_dir.is_some();
            if custom && sharded {
                return Err(
                    "--shards/--cache-dir cannot be combined with --stack or --model \
                     FILE: sharded sweeps only run the built-in matrices"
                        .into(),
                );
            }
            let family = pos.next().cloned().unwrap_or_else(|| "wrc".to_string());
            let tests: Vec<LitmusTest> = suite::full_suite()
                .into_iter()
                .filter(|t| t.family() == family)
                .collect();
            if tests.is_empty() {
                return Err(format!("unknown family '{family}'").into());
            }
            if opts.power && opts.x86 {
                return Err("--power and --x86 are mutually exclusive".into());
            }
            // The stacks and the renderer, resolved once: a stack file
            // renders as a table under its title, a model file as Figure
            // 15 charts, a built-in study as its own table or charts.
            let spec = if opts.power {
                MatrixSpec::Power
            } else if opts.x86 {
                MatrixSpec::X86
            } else {
                MatrixSpec::Riscv
            };
            let (file_stacks, title) = match (loaded, model_stacks) {
                (Some(loaded), _) => (Some(loaded.stacks), Some(loaded.title)),
                (None, Some((_, stacks))) => (Some(stacks), None),
                (None, None) => (None, spec.title().map(str::to_string)),
            };
            let outcome_mode = if opts.outcomes {
                OutcomeMode::FullOutcomes
            } else {
                OutcomeMode::Target
            };
            // Only built-in studies shard: worker processes rebuild the
            // stacks from the spec.
            let cache_dir = opts
                .cache_dir
                .as_deref()
                .map(validate_cache_dir)
                .transpose()?;
            let dist_opts = sharded.then(|| DistOptions {
                shards: opts.shards.unwrap_or(1),
                threads: opts.threads,
                outcome_mode,
                cache_dir,
                // Spawned workers run their shard under a metrics session
                // and ship the drained report back (protocol v4) so the
                // merged metrics carry a per-worker breakdown.
                collect_trace: wants_metrics(&opts),
                ..DistOptions::default()
            });
            let session = begin_sweep_trace(&opts);
            let dist = dist_opts
                .map(|dist_opts| run_sharded(spec, &tests, &dist_opts))
                .transpose()
                .map_err(|e| e.to_string())?;
            let in_process;
            let results = match &dist {
                Some(dist) => &dist.results,
                None => {
                    let sweep_opts = SweepOptions {
                        outcome_mode,
                        ..opts
                            .threads
                            .map_or_else(SweepOptions::default, SweepOptions::with_threads)
                    };
                    let stacks = file_stacks.unwrap_or_else(|| spec.stacks());
                    in_process = Sweep::with_options(sweep_opts).run_matrix(&tests, &stacks);
                    &in_process
                }
            };
            print_report(out, || match &title {
                Some(title) => report::stack_table(results, title),
                None => report::family_chart(results, &family),
            })?;
            let store_stats = dist
                .as_ref()
                .filter(|_| opts.cache_dir.is_some())
                .map(DistResults::store_stats);
            let report = end_sweep_trace(
                session,
                &opts,
                results.stats(),
                store_stats.as_ref(),
                dist.as_ref(),
                lint_counters,
            )?;
            if opts.cache_stats {
                print_engine_stats(out, &report)?;
            }
            Ok(0)
        }
        // The child half of the --shards protocol: job on stdin, result
        // on stdout. Spawned by the planner, not typed by users (hence
        // absent from the usage text).
        "shard-worker" => tricheck::dist::shard_worker_stdio()
            .map(|()| 0)
            .map_err(Failure::Error),
        other => Err(format!("unknown command '{other}'").into()),
    }
}

/// Prints a `--model`/`--stack` file's lint findings to stderr and
/// refuses to sweep over error-level ones (statically-empty relations,
/// vacuous axioms — the sweep's verdicts would be judged against a model
/// that cannot behave as written) unless `--allow-lint-errors` is given.
fn gate_lints(
    origin: &str,
    lints: &[tricheck::rel::lint::Diagnostic],
    allow_errors: bool,
) -> Result<(), String> {
    for d in lints {
        eprintln!("{origin}:{d}");
    }
    let errors = lints
        .iter()
        .filter(|d| d.severity == tricheck::rel::lint::Severity::Error)
        .count();
    if errors > 0 && !allow_errors {
        return Err(format!(
            "{origin}: {errors} lint error(s) — rerun with --allow-lint-errors to \
             sweep anyway, or `tricheck lint {origin}` for the full report"
        ));
    }
    Ok(())
}

/// Renders the stable `tricheck-lint/v1` JSON report for `lint --json`:
/// schema tag, file, rule/finding counts, then one object per
/// diagnostic in report order. Pinned by `lint_json_schema_is_stable`
/// and schema-validated in CI.
fn lint_json(
    file: &str,
    rules_checked: usize,
    diags: &[tricheck::rel::lint::Diagnostic],
) -> String {
    use std::fmt::Write as _;
    let errors = diags
        .iter()
        .filter(|d| d.severity == tricheck::rel::lint::Severity::Error)
        .count();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"tricheck-lint/v1\",\"file\":{},\"rules_checked\":{rules_checked},\
         \"errors\":{errors},\"warnings\":{},\"diagnostics\":[",
        json_string(file),
        diags.len() - errors
    );
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"code\":{},\"severity\":{},\"line\":{},\"column\":{},\"message\":{}}}",
            json_string(d.code),
            json_string(d.severity.label()),
            d.line,
            d.col,
            json_string(&d.msg)
        );
    }
    out.push_str("]}");
    out
}

/// A JSON string literal: quotes, backslashes (model text contains `\`
/// for set difference) and control characters escaped.
fn json_string(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Whether the run needs metrics aggregation (not just progress).
fn wants_metrics(opts: &Options) -> bool {
    opts.metrics_json.is_some() || opts.trace_out.is_some()
}

/// The tracing session of one `sweep` invocation, driven by
/// `--metrics-json`, `--trace`, and `--progress`.
struct SweepTrace {
    /// Whether a collector session was started (and must be drained).
    traced: bool,
    /// Stop flag + join handle of the live progress renderer thread.
    progress: Option<(
        std::sync::Arc<std::sync::atomic::AtomicBool>,
        std::thread::JoinHandle<()>,
    )>,
}

fn begin_sweep_trace(opts: &Options) -> SweepTrace {
    let config = tricheck::trace::TraceConfig {
        metrics: wants_metrics(opts),
        events: opts.trace_out.is_some(),
        progress: opts.progress,
    };
    let traced = config.metrics || config.events || config.progress;
    if traced {
        tricheck::trace::start(config);
    }
    let progress = opts.progress.then(spawn_progress_renderer);
    SweepTrace { traced, progress }
}

/// Renders a `\r`-overwritten progress line to stderr at ~5 Hz until
/// stopped: cells done/total, current phase, elapsed, ETA. stdout — the
/// chart output scripts diff — is never touched.
fn spawn_progress_renderer() -> (
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let flag = std::sync::Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut drawn = false;
        while !flag.load(Ordering::Relaxed) {
            if let Some(p) = tricheck::trace::progress_snapshot() {
                let eta = p
                    .eta()
                    .map_or_else(|| "--".to_string(), |eta| format!("{eta:.0?}"));
                eprint!(
                    "\r[sweep] {}/{} cells  phase {}  elapsed {:.1?}  eta {eta}   ",
                    p.done, p.total, p.phase, p.elapsed
                );
                drawn = true;
            }
            std::thread::sleep(std::time::Duration::from_millis(200));
        }
        if drawn {
            eprintln!();
        }
    });
    (stop, handle)
}

/// Drains the session begun by [`begin_sweep_trace`]: folds in
/// per-worker shard reports, injects the authoritative engine and store
/// counters, and writes the `--metrics-json` / `--trace` files. The
/// returned report is the single source for `--cache-stats`.
fn end_sweep_trace(
    session: SweepTrace,
    opts: &Options,
    stats: &tricheck::core::SweepStats,
    store: Option<&tricheck::core::StoreStats>,
    dist: Option<&tricheck::dist::DistResults>,
    lint_counters: Option<(u64, u64)>,
) -> Result<tricheck::trace::TraceReport, String> {
    if let Some((stop, handle)) = session.progress {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = handle.join();
    }
    let (mut report, events) = if session.traced {
        let drained = tricheck::trace::finish();
        (drained.report, drained.events)
    } else {
        (tricheck::trace::TraceReport::default(), Vec::new())
    };
    // Workers first: absorbing sums the per-worker counters; the
    // engine's own summed totals then overwrite them with identical
    // values (the invariant `tests/metrics_report.rs` pins).
    if let Some(dist) = dist {
        dist.absorb_traces(&mut report);
    }
    for (name, value) in stats.as_counters() {
        report.set_counter(name, value);
    }
    if let Some(store) = store {
        for (name, value) in store.as_counters() {
            report.set_counter(name, value);
        }
    }
    // Stack/model files are linted while loading, *before* the trace
    // session begins — inject the counts the session could not capture.
    if let Some((rules, diags)) = lint_counters {
        report.set_counter("lint_rules_checked", rules);
        report.set_counter("lint_diagnostics", diags);
    }
    if let Some(path) = &opts.metrics_json {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("--metrics-json {path}: {e}"))?;
    }
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, tricheck::trace::chrome_trace_json(&events))
            .map_err(|e| format!("--trace {path}: {e}"))?;
    }
    Ok(report)
}

/// Renders every registered sweep stack (`sweep --list-models`): the
/// three built-in matrices' cells plus any runtime-loaded sections,
/// each with its ISA column, mapping, µarch model, and the model's IR
/// axiom names — so data-defined models added to any matrix (or loaded
/// from a stack file) are discoverable without reading source.
fn list_models(extra: &[(String, &[MatrixStack<'_>])]) -> String {
    let mut out = String::new();
    let builtins = [
        ("riscv (Figure 15)", MatrixSpec::Riscv),
        ("power (§7 study, --power)", MatrixSpec::Power),
        ("x86 (TSO study, --x86)", MatrixSpec::X86),
    ];
    for (title, spec) in builtins {
        render_stack_section(&mut out, title, &spec.stacks());
    }
    for (title, stacks) in extra {
        render_stack_section(&mut out, title, stacks);
    }
    out
}

/// One `== title ==` section of the `--list-models` catalog.
fn render_stack_section(out: &mut String, title: &str, stacks: &[MatrixStack<'_>]) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<8} {:<14} {:<24} {:<22} axioms",
        "ISA", "variant", "mapping", "model"
    );
    for stack in stacks {
        let axioms: Vec<&str> = stack.model.ir().axioms().iter().map(|a| a.name).collect();
        let _ = writeln!(
            out,
            "{:<8} {:<14} {:<24} {:<22} {}",
            stack.key.isa,
            stack.key.variant,
            stack.mapping.name(),
            stack.model.name(),
            axioms.join(", ")
        );
    }
}

/// Validates `--cache-dir`: an existing path must be a directory; a
/// missing one is created (with parents).
///
/// `DiskStore::open` performs the same checks, but in a multi-shard run
/// the store is opened inside the *worker* processes — pre-flighting
/// here turns a bad flag value into one clear error instead of N
/// spawned children all failing with a worker-protocol error.
fn validate_cache_dir(path: &str) -> Result<std::path::PathBuf, String> {
    let path = std::path::PathBuf::from(path);
    if path.exists() && !path.is_dir() {
        return Err(format!(
            "--cache-dir '{}' exists but is not a directory",
            path.display()
        ));
    }
    std::fs::create_dir_all(&path).map_err(|e| format!("--cache-dir '{}': {e}", path.display()))?;
    Ok(path)
}

/// Renders and prints a results table under the `report` phase, so
/// chart formatting shows up in the metrics instead of widening the
/// busy-vs-wall gap.
fn print_report(out: &mut dyn Write, render: impl FnOnce() -> String) -> io::Result<()> {
    let _t = tricheck::trace::span(tricheck::trace::Phase::Report);
    write!(out, "{}", render())
}

/// Prints the `--cache-stats` block: every counter of the final
/// [`tricheck::trace::TraceReport`] as one `key: value` line, sorted by
/// name. Engine counters ([`tricheck::core::SweepStats`]), pruning
/// counters, persistent-store counters (`store_*`, when `--cache-dir`
/// is set), and trace-layer counters all share one flat namespace —
/// the same names the `--metrics-json` document uses.
fn print_engine_stats(
    out: &mut dyn Write,
    report: &tricheck::trace::TraceReport,
) -> io::Result<()> {
    writeln!(out)?;
    writeln!(out, "cache stats:")?;
    for (name, value) in &report.counters {
        writeln!(out, "  {name}: {value}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a command with its output discarded and its failure as text.
    fn run(args: &[String]) -> Result<u8, String> {
        super::run(args, &mut io::sink()).map_err(|failure| match failure {
            Failure::Error(msg) => msg,
            Failure::ReaderGone => unreachable!("a sink never closes"),
        })
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parse_with_defaults() {
        let args = strings(&["verify", "mp+rlx+rlx+rlx+rlx"]);
        let (pos, opts) = parse_options(&args).unwrap();
        assert_eq!(pos.len(), 2);
        assert_eq!(opts.isa, RiscvIsa::Base);
        assert_eq!(opts.spec, SpecVersion::Curr);
        assert_eq!(opts.model, "nMM");
    }

    #[test]
    fn options_parse_overrides() {
        let args = strings(&[
            "verify", "x", "--isa", "base+a", "--spec", "ours", "--model", "A9like",
        ]);
        let (_, opts) = parse_options(&args).unwrap();
        assert_eq!(opts.isa, RiscvIsa::BaseA);
        assert_eq!(opts.spec, SpecVersion::Ours);
        assert_eq!(opts.model, "A9like");
    }

    #[test]
    fn thread_and_cache_stat_flags_parse() {
        let args = strings(&["sweep", "mp", "--threads", "4", "--cache-stats"]);
        let (pos, opts) = parse_options(&args).unwrap();
        assert_eq!(pos.len(), 2);
        assert_eq!(opts.threads, Some(4));
        assert!(opts.cache_stats);
        assert!(!opts.outcomes);
        assert!(!opts.power);
        assert!(parse_options(&strings(&["sweep", "--threads", "0"])).is_err());
        assert!(parse_options(&strings(&["sweep", "--threads", "many"])).is_err());
        assert!(parse_options(&strings(&["sweep", "--threads"])).is_err());
    }

    #[test]
    fn outcome_and_power_sweep_flags_parse() {
        let args = strings(&["sweep", "wrc", "--power", "--outcomes"]);
        let (pos, opts) = parse_options(&args).unwrap();
        assert_eq!(pos.len(), 2);
        assert!(opts.outcomes);
        assert!(opts.power);
    }

    #[test]
    fn x86_sweep_runs_end_to_end() {
        // The CI smoke invocation, in-process: the sb family through the
        // data-defined TSO stack.
        let args = strings(&["sweep", "sb", "--x86", "--threads", "2", "--cache-stats"]);
        assert_eq!(run(&args), Ok(0));
        // --power and --x86 cannot be combined.
        assert!(run(&strings(&["sweep", "sb", "--power", "--x86"])).is_err());
    }

    #[test]
    fn list_models_names_every_matrix_and_axiom() {
        let listing = list_models(&[]);
        for needle in [
            "riscv (Figure 15)",
            "power (§7 study, --power)",
            "x86 (TSO study, --x86)",
            "x86-TSO",
            "x86-sc-atomics",
            "x86-relaxed",
            "ARMv7-A9like",
            "riscv-base+a-refined",
            "ScPerLocation",
            "ScAmoOrder",
        ] {
            assert!(listing.contains(needle), "missing {needle}:\n{listing}");
        }
        // 28 RISC-V + 4 Power + 2 x86 stacks, plus 3 titles + 3 headers.
        assert_eq!(listing.lines().count(), 34 + 6);
        // And the flag path prints it without touching a sweep.
        assert_eq!(run(&strings(&["sweep", "--list-models"])), Ok(0));
    }

    #[test]
    fn power_sweep_runs_end_to_end() {
        // The CI smoke invocation, in-process: a small family through the
        // §7 engine sweep with explicit threads.
        let args = strings(&["sweep", "sb", "--power", "--threads", "2", "--cache-stats"]);
        assert_eq!(run(&args), Ok(0));
    }

    #[test]
    fn shard_and_cache_dir_flags_parse() {
        let args = strings(&["sweep", "mp", "--shards", "4", "--cache-dir", "/tmp/tc"]);
        let (pos, opts) = parse_options(&args).unwrap();
        assert_eq!(pos.len(), 2);
        assert_eq!(opts.shards, Some(4));
        assert_eq!(opts.cache_dir.as_deref(), Some("/tmp/tc"));
        assert!(parse_options(&strings(&["sweep", "--shards", "0"])).is_err());
        assert!(parse_options(&strings(&["sweep", "--shards", "lots"])).is_err());
        assert!(parse_options(&strings(&["sweep", "--shards"])).is_err());
        assert!(parse_options(&strings(&["sweep", "--cache-dir"])).is_err());
    }

    #[test]
    fn cache_dir_validation_rejects_non_directories() {
        let file = std::env::temp_dir().join(format!("tricheck-cli-test-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let err = validate_cache_dir(file.to_str().unwrap()).unwrap_err();
        assert!(err.contains("not a directory"), "{err}");
        std::fs::remove_file(&file).unwrap();

        // A missing directory is created.
        let dir = std::env::temp_dir().join(format!(
            "tricheck-cli-test-dir-{}/nested",
            std::process::id()
        ));
        let validated = validate_cache_dir(dir.to_str().unwrap()).unwrap();
        assert!(validated.is_dir());
        std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    }

    #[test]
    fn single_shard_cached_sweep_runs_in_process_end_to_end() {
        // --shards 1 must bypass process spawning entirely: this test
        // binary has no `shard-worker` subcommand to spawn, so reaching
        // the chart at all proves the bypass. Run twice to exercise the
        // warm-store path through the CLI too.
        let dir = std::env::temp_dir().join(format!("tricheck-cli-sweep-{}", std::process::id()));
        let args = strings(&[
            "sweep",
            "sb",
            "--power",
            "--shards",
            "1",
            "--threads",
            "2",
            "--cache-dir",
            dir.to_str().unwrap(),
            "--cache-stats",
        ]);
        assert_eq!(run(&args), Ok(0));
        assert_eq!(run(&args), Ok(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_isa_is_rejected() {
        let args = strings(&["verify", "x", "--isa", "mips"]);
        assert!(parse_options(&args).is_err());
    }

    #[test]
    fn all_seven_models_resolve() {
        for m in ["WR", "rWR", "rWM", "rMM", "nWR", "nMM", "A9like"] {
            assert!(model_by_name(m, SpecVersion::Curr).is_ok(), "{m}");
        }
        assert!(model_by_name("tso", SpecVersion::Curr).is_err());
    }

    #[test]
    fn named_figure_tests_are_findable() {
        assert!(find_test("wrc+rlx+rlx+rel+acq+rlx").is_ok());
        assert!(find_test("mp_dep+rel+rel+rlx+acq").is_ok());
        assert!(find_test("nonexistent").is_err());
    }

    #[test]
    fn run_rejects_unknown_commands() {
        assert!(run(&strings(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn help_prints_the_usage_and_succeeds() {
        for args in [&["--help"][..], &["-h"], &["help"], &["sweep", "--help"]] {
            assert_eq!(run(&strings(args)), Ok(0), "{args:?}");
        }
    }

    /// The committed whole-stack definition file, and its bare-model twin.
    const STACK_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models/x86-tso.stack");
    const MODEL_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models/x86-tso.cat");

    #[test]
    fn unknown_flags_are_rejected_with_the_flag_name() {
        let err = parse_options(&strings(&["sweep", "--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown option '--frobnicate'"), "{err}");
        // A near-miss typo earns a nearest-match hint.
        let err = parse_options(&strings(&["sweep", "--modle", "nMM"])).unwrap_err();
        assert!(err.contains("did you mean '--model'?"), "{err}");
        let err = parse_options(&strings(&["sweep", "--cache-sats"])).unwrap_err();
        assert!(err.contains("did you mean '--cache-stats'?"), "{err}");
    }

    #[test]
    fn inapplicable_flags_are_rejected_per_subcommand() {
        for (args, flag) in [
            (vec!["list", "--threads", "2"], "--threads"),
            (vec!["show", "x", "--isa", "base"], "--isa"),
            (vec!["compile", "x", "--model", "nMM"], "--model"),
            (vec!["verify", "x", "--shards", "2"], "--shards"),
            (vec!["dot", "x", "--list-models"], "--list-models"),
            (vec!["file", "x", "--cache-dir", "/tmp/x"], "--cache-dir"),
            (vec!["verify", "x", "--stack", STACK_FILE], "--stack"),
            // A sweep picks its stacks with --power/--x86/--stack/--model;
            // the single-test ISA and spec flags would be ignored.
            (vec!["sweep", "sb", "--isa", "base+a"], "--isa"),
            (vec!["sweep", "sb", "--spec", "ours"], "--spec"),
        ] {
            let err = run(&strings(&args)).unwrap_err();
            assert!(
                err.contains(&format!("'{flag}' does not apply")),
                "{args:?}: {err}"
            );
        }
        // The flags still work where they do apply.
        assert!(run(&strings(&["compile", "sb+sc+sc+sc+sc", "--isa", "base+a"])).is_ok());
    }

    #[test]
    fn sweep_rejects_a_repeated_stack_file() {
        let lint_fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/lint/w004.stack"
        );
        let args = [
            "sweep",
            "sb",
            "--stack",
            STACK_FILE,
            "--stack",
            lint_fixture,
        ];
        let err = run(&strings(&args)).unwrap_err();
        assert!(err.contains("'--stack' given more than once"), "{err}");
    }

    #[test]
    fn sweep_rejects_a_repeated_model_file() {
        let args = ["sweep", "sb", "--model", MODEL_FILE, "--model", MODEL_FILE];
        let err = run(&strings(&args)).unwrap_err();
        assert!(err.contains("'--model' given more than once"), "{err}");
    }

    #[test]
    fn list_models_rejects_the_flags_that_select_or_run_a_sweep() {
        for flag in [
            &["--power"][..],
            &["--x86"],
            &["--outcomes"],
            &["--threads", "2"],
            &["--shards", "2"],
            &["--cache-dir", "/tmp/x"],
            &["--cache-stats"],
            &["--metrics-json", "/tmp/x.json"],
            &["--progress"],
            &["--trace", "/tmp/x.json"],
        ] {
            let args: Vec<&str> = ["sweep", "--list-models"]
                .iter()
                .chain(flag)
                .copied()
                .collect();
            let err = run(&strings(&args)).unwrap_err();
            assert!(
                err.contains(&format!(
                    "'{}' does not apply to the 'sweep --list-models' command",
                    flag[0]
                )),
                "{args:?}: {err}"
            );
        }
        // The files it catalogs still apply.
        let args = ["sweep", "--list-models", "--model", MODEL_FILE];
        assert_eq!(run(&strings(&args)), Ok(0));
    }

    #[test]
    fn sweep_stack_file_runs_end_to_end() {
        let args = strings(&["sweep", "sb", "--stack", STACK_FILE, "--threads", "2"]);
        assert_eq!(run(&args), Ok(0));
        // And the loaded stack shows up in the catalog path.
        let args = strings(&["sweep", "--list-models", "--stack", STACK_FILE]);
        assert_eq!(run(&args), Ok(0));
    }

    #[test]
    fn sweep_model_file_runs_end_to_end() {
        let args = strings(&["sweep", "sb", "--model", MODEL_FILE, "--threads", "2"]);
        assert_eq!(run(&args), Ok(0));
    }

    #[test]
    fn single_test_commands_accept_a_model_file() {
        let args = strings(&["verify", "mp+rlx+rlx+rlx+rlx", "--model", MODEL_FILE]);
        assert_eq!(run(&args), Ok(0));
        // A value that is neither a built-in name nor a file still errors.
        let err = run(&strings(&[
            "verify",
            "mp+rlx+rlx+rlx+rlx",
            "--model",
            "tso",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown model 'tso'"), "{err}");
    }

    #[test]
    fn sweep_rejects_bad_stack_and_model_combinations() {
        let e = run(&strings(&[
            "sweep", "sb", "--stack", STACK_FILE, "--model", MODEL_FILE,
        ]))
        .unwrap_err();
        assert!(e.contains("cannot be combined"), "{e}");
        let e = run(&strings(&["sweep", "sb", "--stack", STACK_FILE, "--x86"])).unwrap_err();
        assert!(e.contains("--power/--x86"), "{e}");
        let e = run(&strings(&[
            "sweep", "sb", "--stack", STACK_FILE, "--shards", "2",
        ]))
        .unwrap_err();
        assert!(e.contains("--shards/--cache-dir"), "{e}");
        let e = run(&strings(&["sweep", "sb", "--model", MODEL_FILE, "--power"])).unwrap_err();
        assert!(e.contains("--power/--x86"), "{e}");
        // sweep --model only takes the file form.
        let e = run(&strings(&["sweep", "sb", "--model", "nMM"])).unwrap_err();
        assert!(e.contains("is not a file"), "{e}");
    }

    #[test]
    fn stack_file_errors_carry_origin_and_line() {
        let dir = std::env::temp_dir().join(format!("tricheck-cli-stack-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.stack");
        std::fs::write(
            &bad,
            "stack broken\nisa x86\nmapping m\nld rlx = frobnicate\nmodel broken\n  A: acyclic(po)\n",
        )
        .unwrap();
        let err = run(&strings(&["sweep", "sb", "--stack", bad.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("bad.stack:4"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes `content` to a uniquely-named temp file and returns its
    /// path (the caller removes it).
    fn temp_file(tag: &str, content: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "tricheck-cli-{tag}-{}-{}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-")
        ));
        std::fs::write(&path, content).unwrap();
        path
    }

    /// A stack file whose model contains a statically-empty relation
    /// (`rf ∩ co` can relate nothing: rf ends at reads, co at writes) —
    /// the lint pass reports it as an E001 error.
    const LINT_BAD_STACK: &str = "stack lint-bad
isa x86
mapping m
  ld rlx|acq|sc = ld
  st rlx|rel|sc = st
model lint-bad
  bad := (rf ∩ co)
  Causality: acyclic((po ∪ bad))
";

    #[test]
    fn lint_flags_parse_and_apply_per_subcommand() {
        let args = strings(&["lint", "f", "--json", "--deny-warnings"]);
        let (pos, opts) = parse_options(&args).unwrap();
        assert_eq!(pos.len(), 2);
        assert!(opts.json);
        assert!(opts.deny_warnings);
        assert!(!opts.allow_lint_errors);
        let (_, opts) = parse_options(&strings(&["sweep", "--allow-lint-errors"])).unwrap();
        assert!(opts.allow_lint_errors);
        // Lint-only flags do not leak into sweep, nor sweep flags into lint.
        for (args, flag) in [
            (vec!["sweep", "sb", "--json"], "--json"),
            (vec!["sweep", "sb", "--deny-warnings"], "--deny-warnings"),
            (
                vec!["lint", "f", "--allow-lint-errors"],
                "--allow-lint-errors",
            ),
            (vec!["lint", "f", "--threads", "2"], "--threads"),
            (vec!["verify", "x", "--json"], "--json"),
        ] {
            let err = run(&strings(&args)).unwrap_err();
            assert!(
                err.contains(&format!("'{flag}' does not apply")),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn lint_is_clean_on_the_committed_files() {
        // The committed stack and model files must stay clean even under
        // --deny-warnings (the CI smoke invocation, in-process).
        assert_eq!(
            run(&strings(&["lint", STACK_FILE, "--deny-warnings"])),
            Ok(0)
        );
        assert_eq!(
            run(&strings(&["lint", MODEL_FILE, "--deny-warnings"])),
            Ok(0)
        );
        assert_eq!(run(&strings(&["lint", STACK_FILE, "--json"])), Ok(0));
    }

    #[test]
    fn lint_exit_codes_separate_errors_from_warnings() {
        let bad = temp_file("lint-e001.stack", LINT_BAD_STACK);
        let path = bad.to_str().unwrap();
        // Error-level findings exit 1, with or without --deny-warnings.
        assert_eq!(run(&strings(&["lint", path])), Ok(1));
        assert_eq!(run(&strings(&["lint", path, "--deny-warnings"])), Ok(1));
        assert_eq!(run(&strings(&["lint", path, "--json"])), Ok(1));
        std::fs::remove_file(&bad).unwrap();

        // A warning-only model (dead definition) exits 0, or 2 under
        // --deny-warnings.
        let warn = temp_file(
            "lint-w001.cat",
            "model warny\n  dead := rfe\n  Causality: acyclic((po \u{222a} rf))\n",
        );
        let path = warn.to_str().unwrap();
        assert_eq!(run(&strings(&["lint", path])), Ok(0));
        assert_eq!(run(&strings(&["lint", path, "--deny-warnings"])), Ok(2));
        std::fs::remove_file(&warn).unwrap();

        // A missing file is an operational error, not a lint verdict.
        assert!(run(&strings(&["lint", "/nonexistent.cat"])).is_err());
    }

    #[test]
    fn sweep_refuses_lint_errors_unless_allowed() {
        let bad = temp_file("sweep-gate.stack", LINT_BAD_STACK);
        let path = bad.to_str().unwrap();
        let err = run(&strings(&["sweep", "sb", "--stack", path])).unwrap_err();
        assert!(err.contains("lint error"), "{err}");
        assert!(err.contains("--allow-lint-errors"), "{err}");
        // The override sweeps the (vacuous but well-formed) model anyway.
        let args = strings(&[
            "sweep",
            "sb",
            "--stack",
            path,
            "--threads",
            "2",
            "--allow-lint-errors",
        ]);
        assert_eq!(run(&args), Ok(0));
        std::fs::remove_file(&bad).unwrap();
    }

    #[test]
    fn sweep_metrics_carry_the_lint_counters() {
        let json = std::env::temp_dir().join(format!(
            "tricheck-cli-lint-metrics-{}.json",
            std::process::id()
        ));
        let args = strings(&[
            "sweep",
            "sb",
            "--stack",
            STACK_FILE,
            "--threads",
            "2",
            "--metrics-json",
            json.to_str().unwrap(),
        ]);
        assert_eq!(run(&args), Ok(0));
        let doc = std::fs::read_to_string(&json).unwrap();
        assert!(doc.contains("\"lint_rules_checked\""), "{doc}");
        assert!(doc.contains("\"lint_diagnostics\""), "{doc}");
        std::fs::remove_file(&json).unwrap();
    }

    #[test]
    fn lint_json_schema_is_stable() {
        use tricheck::rel::lint::Diagnostic;
        assert_eq!(
            lint_json("m.cat", 6, &[]),
            "{\"schema\":\"tricheck-lint/v1\",\"file\":\"m.cat\",\"rules_checked\":6,\
             \"errors\":0,\"warnings\":0,\"diagnostics\":[]}"
        );
        let diags = [
            Diagnostic::error(
                "E001",
                (3, 10),
                "relation '(rf \u{2229} co)' is empty".to_string(),
            ),
            Diagnostic::warning(
                "W001",
                (2, 3),
                "definition 'x \\ y' is never used".to_string(),
            ),
        ];
        assert_eq!(
            lint_json("a\"b.cat", 6, &diags),
            "{\"schema\":\"tricheck-lint/v1\",\"file\":\"a\\\"b.cat\",\"rules_checked\":6,\
             \"errors\":1,\"warnings\":1,\"diagnostics\":[\
             {\"code\":\"E001\",\"severity\":\"error\",\"line\":3,\"column\":10,\
             \"message\":\"relation '(rf \u{2229} co)' is empty\"},\
             {\"code\":\"W001\",\"severity\":\"warning\",\"line\":2,\"column\":3,\
             \"message\":\"definition 'x \\\\ y' is never used\"}]}"
        );
    }

    #[test]
    fn json_strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("po \u{222a} rf"), "\"po \u{222a} rf\"");
    }
}
