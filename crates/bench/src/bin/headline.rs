//! Quick validation: total bugs per (ISA, version, model) over the suite.
//!
//! Usage: `headline [--json FILE]` — `--json FILE` writes the run's
//! structured `tricheck-metrics/v1` report (phase timings and counters),
//! the payload recorded in `BENCH_headline.json` to track the perf
//! trajectory of the full-suite sweep.
use tricheck_core::{report, MatrixSpec, Sweep};
use tricheck_litmus::suite;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let tests = suite::full_suite();
    let (results, trace) = tricheck_bench::timed_report(|| {
        Sweep::new().run_matrix(&tests, &MatrixSpec::Riscv.stacks())
    });
    println!("{}", report::headline_table(&results));
    if let Some(path) = json_path {
        std::fs::write(&path, trace.to_json()).expect("writing the metrics JSON file");
        println!("wrote tricheck-metrics/v1 report to {path}");
    }
    println!("{}", trace.render_text());
}
