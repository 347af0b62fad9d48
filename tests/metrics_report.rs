//! Golden-schema and determinism tests for the structured metrics
//! report (`sweep --metrics-json`, `tricheck-metrics/v1`).
//!
//! The JSON document is an interface: external dashboards parse it by
//! field name, so the names and types pinned here may only change with
//! a schema version bump. The trace collector is process-global, so
//! every test that opens a session serializes on [`session_lock`].

use std::sync::{Mutex, MutexGuard, OnceLock};

use tricheck::core::{MatrixSpec, Sweep, SweepOptions};
use tricheck::litmus::{suite, LitmusTest};
use tricheck::trace::{self, json, TraceConfig, TraceReport};

fn session_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn family(name: &str) -> Vec<LitmusTest> {
    suite::full_suite()
        .into_iter()
        .filter(|t| t.family() == name)
        .collect()
}

/// One deterministic serial sweep under a metrics session, with the
/// engine counters injected exactly as the CLI injects them.
fn traced_serial_sweep(tests: &[LitmusTest]) -> TraceReport {
    trace::start(TraceConfig::metrics());
    let results = Sweep::with_options(SweepOptions {
        threads: 1,
        ..SweepOptions::default()
    })
    .run_matrix(tests, &MatrixSpec::Riscv.stacks());
    let mut report = trace::finish().report;
    for (name, value) in results.stats().as_counters() {
        report.set_counter(name, value);
    }
    report
}

fn as_u64(v: &json::Value, what: &str) -> u64 {
    v.as_u64().unwrap_or_else(|| panic!("{what} must be a u64"))
}

/// The golden schema: every field name and type of the v1 document,
/// exactly as `to_json` emits it.
#[test]
fn metrics_json_schema_is_pinned() {
    let _guard = session_lock();
    let report = traced_serial_sweep(&family("sb"));
    let doc = report.to_json();
    let parsed = json::parse(&doc).expect("metrics document must be valid JSON");
    let top = parsed.as_object().expect("top level must be an object");

    // Top-level keys, exhaustively: nothing extra, nothing missing.
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["busy_ns", "counters", "phases", "schema", "stacks", "wall_ns", "workers"],
        "top-level key set changed — bump the schema version"
    );
    assert_eq!(
        parsed.get("schema").and_then(json::Value::as_str),
        Some("tricheck-metrics/v1")
    );
    let wall = as_u64(parsed.get("wall_ns").expect("wall_ns"), "wall_ns");
    let busy = as_u64(parsed.get("busy_ns").expect("busy_ns"), "busy_ns");
    assert!(wall > 0, "serial sweep must report a wall clock");

    // phases[]: name + the five numeric fields, each a u64.
    let phases = parsed
        .get("phases")
        .and_then(json::Value::as_array)
        .expect("phases must be an array");
    assert!(!phases.is_empty(), "a sweep must record phases");
    for phase in phases {
        let name = phase
            .get("name")
            .and_then(json::Value::as_str)
            .expect("phase.name must be a string");
        for field in ["total_ns", "count", "p50_ns", "p95_ns", "max_ns"] {
            let v = phase
                .get(field)
                .unwrap_or_else(|| panic!("phase {name} missing {field}"));
            as_u64(v, field);
        }
    }
    let phase_names: Vec<&str> = phases
        .iter()
        .filter_map(|p| p.get("name").and_then(json::Value::as_str))
        .collect();
    for required in ["cell", "c11_eval", "space_enum", "candidate_check"] {
        assert!(
            phase_names.contains(&required),
            "sweep must record the {required} phase, got {phase_names:?}"
        );
    }

    // Phase self-times partition the run: on a serial (threads = 1)
    // sweep their sum (busy_ns) accounts for the wall clock, minus
    // only the untraced scraps (pool setup, result aggregation).
    let total: u64 = phases
        .iter()
        .map(|p| as_u64(p.get("total_ns").expect("total_ns"), "total_ns"))
        .sum();
    assert_eq!(total, busy, "busy_ns must be the sum of phase totals");
    assert!(
        busy <= wall + wall / 20,
        "serial busy time cannot exceed wall: busy={busy} wall={wall}"
    );
    assert!(
        busy >= wall / 2,
        "traced phases must account for the bulk of a serial sweep: busy={busy} wall={wall}"
    );

    // counters{}: flat name → u64 map, superset of the engine stats.
    let counters = parsed
        .get("counters")
        .and_then(json::Value::as_object)
        .expect("counters must be an object");
    for (name, value) in counters {
        as_u64(value, name);
    }
    for required in [
        "tests",
        "cells",
        "c11_evaluations",
        "space_enumerations",
        "compiled_kernels",
        "prelude_hits",
        "prelude_misses",
        "candidates_enumerated",
    ] {
        assert!(
            counters.contains_key(required),
            "missing counter {required}"
        );
    }

    // stacks[]: one latency row per mapping group (the sweep's work
    // unit), labelled isa/variant.
    let stacks = parsed
        .get("stacks")
        .and_then(json::Value::as_array)
        .expect("stacks must be an array");
    assert_eq!(
        stacks.len(),
        4,
        "the Figure 15 matrix has 4 mapping groups of 7 stacks"
    );
    for stack in stacks {
        let label = stack
            .get("label")
            .and_then(json::Value::as_str)
            .expect("stack.label must be a string");
        assert_eq!(
            label.matches('/').count(),
            1,
            "label {label} must be isa/variant"
        );
        for field in ["total_ns", "count", "p50_ns", "p95_ns", "max_ns"] {
            as_u64(stack.get(field).expect(field), field);
        }
    }

    // workers[]: empty on an unsharded run, but present and an array.
    let workers = parsed
        .get("workers")
        .and_then(json::Value::as_array)
        .expect("workers must be an array");
    assert!(workers.is_empty(), "unsharded run has no worker reports");
}

/// The report's counters agree with the engine's own `SweepStats` — the
/// two views can never drift apart.
#[test]
fn metrics_counters_match_sweep_stats() {
    let _guard = session_lock();
    let tests = family("sb");
    trace::start(TraceConfig::metrics());
    let results = Sweep::with_options(SweepOptions {
        threads: 1,
        ..SweepOptions::default()
    })
    .run_matrix(&tests, &MatrixSpec::Riscv.stacks());
    let report = trace::finish().report;
    let stats = results.stats();

    // The trace layer counts enumerated candidates on its own; the
    // engine tracks distinct programs. Every distinct program is
    // enumerated exactly once (the exactly-once contract), so the
    // independently-maintained counters must corroborate each other.
    assert!(
        report.counter("candidates_enumerated").is_some(),
        "enumeration must bump the trace counter"
    );
    let enum_spans = report.phase("space_enum").expect("space_enum phase");
    assert_eq!(
        enum_spans.count, stats.space_enumerations as u64,
        "one space_enum span per engine enumeration"
    );
    let c11 = report.phase("c11_eval").expect("c11_eval phase");
    assert_eq!(
        c11.count, stats.c11_evaluations as u64,
        "one c11_eval span per engine evaluation"
    );
    let cell = report.phase("cell").expect("cell phase");
    assert_eq!(
        cell.count,
        (stats.tests * 4) as u64,
        "one cell span per (test, mapping group) item"
    );
    // One kernel prelude per judging stream: at most one per
    // (test, mapping) pair, where per-model kernels needed up to 7x.
    let preludes = report.phase("prelude_eval").expect("prelude_eval phase");
    assert!(stats.prelude_misses > 0, "prelude_misses must be live");
    assert!(stats.prelude_misses <= stats.compile_calls);
    assert!(preludes.count >= stats.prelude_misses as u64);
}

/// Two identical serial runs produce identical counter sets and span
/// counts — only durations may differ. This is what makes the report
/// diffable across commits.
#[test]
fn serial_metrics_are_deterministic() {
    let _guard = session_lock();
    let tests = family("mp");
    let a = traced_serial_sweep(&tests);
    let b = traced_serial_sweep(&tests);

    assert_eq!(
        a.counters, b.counters,
        "counter names and values must match"
    );
    let a_phases: Vec<(&str, u64)> = a
        .phases
        .iter()
        .map(|p| (p.name.as_str(), p.count))
        .collect();
    let b_phases: Vec<(&str, u64)> = b
        .phases
        .iter()
        .map(|p| (p.name.as_str(), p.count))
        .collect();
    assert_eq!(a_phases, b_phases, "phase names and span counts must match");
    let a_stacks: Vec<(&str, u64)> = a
        .stacks
        .iter()
        .map(|s| (s.label.as_str(), s.count))
        .collect();
    let b_stacks: Vec<(&str, u64)> = b
        .stacks
        .iter()
        .map(|s| (s.label.as_str(), s.count))
        .collect();
    assert_eq!(
        a_stacks, b_stacks,
        "stack labels and cell counts must match"
    );
}
