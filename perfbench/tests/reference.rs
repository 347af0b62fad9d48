//! The full-outcome reference rows against the naive per-cell oracle.
//!
//! No golden fixture covers full-outcome mode, so
//! `reference/fig15_outcomes_rows.csv` was generated by
//! `Sweep::run_riscv_naive` (every cell recompiles and re-enumerates on
//! its own, sharing nothing with the engine's caches). This test
//! regenerates one family through the oracle and compares; with
//! `PERFBENCH_UPDATE_REFERENCE=1` it regenerates the whole file instead.

use std::path::PathBuf;

use perfbench::workload::{csv_rows, reference_file};
use tricheck_core::{report, OutcomeMode, Sweep, SweepOptions};
use tricheck_dist::MatrixSpec;
use tricheck_litmus::suite;

fn oracle_csv(family: Option<&str>) -> String {
    let tests: Vec<_> = suite::full_suite()
        .into_iter()
        .filter(|t| family.is_none_or(|f| t.family() == f))
        .collect();
    let sweep = Sweep::with_options(SweepOptions {
        outcome_mode: OutcomeMode::FullOutcomes,
        ..SweepOptions::default()
    });
    report::to_csv(&sweep.run_riscv_naive(&tests))
}

#[test]
fn outcomes_reference_matches_the_naive_oracle() {
    let rel = reference_file(MatrixSpec::Riscv, OutcomeMode::FullOutcomes).expect("a reference");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(rel);
    if std::env::var_os("PERFBENCH_UPDATE_REFERENCE").is_some() {
        std::fs::write(&path, oracle_csv(None)).expect("write the reference");
    }
    let committed = std::fs::read_to_string(&path).expect("the committed reference");
    let family = "wrc";
    let expected = csv_rows(&committed, Some(family));
    assert_eq!(expected.len(), 28, "one {family} row per Figure 15 stack");
    assert_eq!(csv_rows(&oracle_csv(Some(family)), None), expected);
}
