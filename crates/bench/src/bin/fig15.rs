//! Regenerates Figure 15: the full-stack sweep of the 1,701-test suite
//! across all seven µSpec models, both RISC-V ISAs, and both
//! specification versions.
//!
//! Usage: `fig15 [--quick] [--csv PATH] [--json FILE]` — `--quick`
//! restricts order permutations to the {rlx, sc}-only subset for a fast
//! smoke run; `--csv PATH` additionally writes the raw per-cell counts
//! for external plotting; `--json FILE` writes the run's structured
//! `tricheck-metrics/v1` report (phase timings, trace counters and the
//! sweep's `SweepStats` counters) for perf trajectories and CI guards.

use tricheck_core::{report, MatrixSpec, Sweep};
use tricheck_litmus::{suite, LitmusTest, MemOrder, SlotKind};

fn quick_suite() -> Vec<LitmusTest> {
    // All-{rlx, sc} permutations of every template: 2^slots each.
    let mut tests = Vec::new();
    for template in suite::all_templates() {
        let slots = template.slots().len();
        for mask in 0..(1usize << slots) {
            let orders: Vec<MemOrder> = template
                .slots()
                .iter()
                .enumerate()
                .map(|(i, kind)| {
                    if mask & (1 << i) != 0 {
                        MemOrder::Sc
                    } else {
                        match kind {
                            SlotKind::Load | SlotKind::Store => MemOrder::Rlx,
                        }
                    }
                })
                .collect();
            tests.push(template.instantiate(&orders));
        }
    }
    tests
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv_path = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let tests = if quick {
        quick_suite()
    } else {
        suite::full_suite()
    };
    println!(
        "Figure 15 sweep over {} litmus tests ({} mode)\n",
        tests.len(),
        if quick { "quick" } else { "full" }
    );
    let (results, mut trace) = tricheck_bench::timed_report(|| {
        Sweep::new().run_matrix(&tests, &MatrixSpec::Riscv.stacks())
    });
    for (name, value) in results.stats().as_counters() {
        trace.set_counter(name, value);
    }

    for family in ["wrc", "rwc", "mp", "sb", "iriw"] {
        println!("{}", report::family_chart(&results, family));
    }
    println!("-- coherence families (reported in §6.1 prose, not charted) --\n");
    for family in ["corr", "corsdwi"] {
        println!("{}", report::family_chart(&results, family));
    }
    println!(
        "{}",
        report::aggregate_chart(&results, &["mp", "sb", "wrc", "rwc", "iriw"])
    );
    println!("{}", report::headline_table(&results));
    if let Some(path) = csv_path {
        std::fs::write(&path, report::to_csv(&results)).expect("writing the CSV file");
        println!("wrote per-cell counts to {path}");
    }
    if let Some(path) = json_path {
        std::fs::write(&path, trace.to_json()).expect("writing the metrics JSON file");
        println!("wrote tricheck-metrics/v1 report to {path}");
    }
    println!("{}", trace.render_text());
}
