//! Regenerates the §7 compiler-mapping study: run the full litmus suite,
//! compiled to Power/ARMv7 with the leading-sync and the (supposedly
//! proven-correct) trailing-sync mappings, across the ARMv7
//! microarchitectures, and report the bugs each mapping exhibits.
//!
//! Runs on the cached sweep engine ([`Sweep::run_matrix`] over
//! [`MatrixSpec::Power`]): each test is
//! compiled once per mapping and each distinct Power program is
//! enumerated once across all {mapping × model} cells — the printed
//! cache statistics prove it. `tests/power_equivalence.rs` pins this
//! sweep's counts to the naive per-cell recompute path.

use tricheck_compiler::PowerSyncStyle;
use tricheck_core::{report, MatrixSpec, StackKey, Sweep, SweepResults};
use tricheck_litmus::suite;

fn style_bugs(results: &SweepResults, style: PowerSyncStyle, model: &str) -> usize {
    let key = StackKey {
        isa: "Power",
        variant: style.label(),
    };
    results.bugs_for(key, model)
}

fn main() {
    let tests = suite::full_suite();
    let sweep = Sweep::new();
    println!(
        "§7 compiler-mapping study: {} tests × {{leading,trailing}}-sync × ARMv7 models\n",
        tests.len()
    );

    let study = MatrixSpec::Power;
    let (results, trace) =
        tricheck_bench::timed_report(|| sweep.run_matrix(&tests, &study.stacks()));
    let title = study.title().expect("the §7 study renders as a table");
    println!("{}", report::stack_table(&results, title));

    println!("counterexample families (C11-forbidden yet observable):");
    for row in results.rows().iter().filter(|r| r.bugs > 0) {
        println!(
            "  {} on {}: {}: {} variants",
            row.key.variant, row.model, row.family, row.bugs
        );
    }
    println!();

    let s = results.stats();
    println!(
        "cached sweep: {} compilations ({} reused), {} distinct Power programs \
         enumerated {} times across {} cells",
        s.compile_calls, s.compile_cache_hits, s.distinct_programs, s.space_enumerations, s.cells,
    );
    println!("{}", trace.render_text());
    println!();

    let leading = style_bugs(&results, PowerSyncStyle::Leading, "ARMv7-A9like");
    let trailing = style_bugs(&results, PowerSyncStyle::Trailing, "ARMv7-A9like");
    if trailing > 0 && leading == 0 {
        println!(
            "=> trailing-sync is invalidated on ARMv7-A9like while leading-sync survives, \
             matching the paper's §7 finding."
        );
    } else {
        println!(
            "=> measured on ARMv7-A9like: leading={leading} bugs, trailing={trailing} bugs \
             (see EXPERIMENTS.md for discussion)."
        );
    }
    let hazard_leading = style_bugs(&results, PowerSyncStyle::Leading, "ARMv7-A9-ldld-hazard");
    if hazard_leading > 0 {
        println!(
            "=> on the A9 load→load-hazard machine even leading-sync misbehaves \
             ({hazard_leading} bugs) — the §1–§2 erratum."
        );
    }
}
