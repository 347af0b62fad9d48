//! Satellite pins for the arena-backed columnar execution-space engine:
//! spaces must hold candidates bit-identical to direct enumeration,
//! sweep rows and statistics must be invariant across thread counts in
//! both outcome modes, the suite-wide pruned-branch count must not
//! move, and snapshots must round-trip through the v3 columnar codec.

use std::sync::OnceLock;

use proptest::prelude::*;
use tricheck::litmus::{core_consistent, enumerate_executions, ExecutionSpace};
use tricheck::prelude::*;

/// The 1,701-test suite, instantiated once for every property case.
fn cached_suite() -> &'static [LitmusTest] {
    static SUITE: OnceLock<Vec<LitmusTest>> = OnceLock::new();
    SUITE.get_or_init(suite::full_suite)
}

/// Strategy: a random non-empty subset of the suite (by test index),
/// spanning several families so the sweep aggregates multiple rows.
fn arb_subset() -> impl Strategy<Value = Vec<LitmusTest>> {
    proptest::collection::vec(0usize..cached_suite().len(), 12).prop_map(|picks| {
        picks
            .into_iter()
            .map(|i| cached_suite()[i].clone())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The columnar arenas hold exactly the rows direct enumeration
    /// produces, in the same order — for the full space of a C11
    /// program and for the pruned space of its hardware compilation
    /// (which must hold precisely the core-consistent candidates).
    #[test]
    fn columnar_spaces_are_bit_identical_to_direct_enumeration(tests in arb_subset()) {
        let mapping = riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr);
        for test in &tests {
            let space = ExecutionSpace::new(test.program().clone());
            let mut direct = Vec::new();
            enumerate_executions(test.program(), &mut |e| {
                direct.push(e.clone());
                true
            });
            prop_assert_eq!(space.executions().to_vec(), direct);

            let compiled = compile(test, mapping).unwrap();
            let full = ExecutionSpace::new(compiled.program().clone());
            let filtered: Vec<_> = full
                .executions()
                .to_vec()
                .into_iter()
                .filter(core_consistent)
                .collect();
            let pruned = ExecutionSpace::pruned(compiled.program().clone());
            prop_assert_eq!(pruned.executions().to_vec(), filtered);
        }
    }

    /// Rows and the complete `SweepStats` are identical at 1 and 4
    /// threads, in both outcome modes: columnar view storage and eager
    /// space reclamation must be invisible to everything a sweep
    /// reports.
    #[test]
    fn sweep_rows_and_stats_are_thread_invariant_in_both_modes(tests in arb_subset()) {
        for mode in [OutcomeMode::Target, OutcomeMode::FullOutcomes] {
            let run = |threads: usize| {
                Sweep::with_options(SweepOptions {
                    threads,
                    outcome_mode: mode,
                    ..SweepOptions::default()
                })
                .run_matrix(&tests, &MatrixSpec::Riscv.stacks())
            };
            let serial = run(1);
            let parallel = run(4);
            prop_assert!(
                serial.rows() == parallel.rows(),
                "rows diverged across thread counts in {mode:?} mode"
            );
            prop_assert_eq!(serial.stats(), parallel.stats());
        }
    }

    /// Snapshots of materialized views round-trip through the v3
    /// columnar codec: restoring is lossless (the restored views hold
    /// bit-identical candidates) and re-snapshotting the restored space
    /// is byte-identical, which is what lets a warm store skip
    /// unchanged writes.
    #[test]
    fn snapshots_round_trip_through_the_columnar_codec(tests in arb_subset()) {
        let mapping = riscv_mapping(RiscvIsa::Base, SpecVersion::Curr);
        for test in &tests {
            let compiled = compile(test, mapping).unwrap();
            let space = ExecutionSpace::pruned(compiled.program().clone());
            let _ = space.matching(compiled.target());
            let _ = space.executions();
            let bytes = space.snapshot();
            let restored = ExecutionSpace::from_snapshot(compiled.program().clone(), &bytes)
                .expect("snapshot of a live space decodes");
            prop_assert_eq!(
                restored.executions().to_vec(),
                space.executions().to_vec()
            );
            prop_assert_eq!(
                restored.matching(compiled.target()).to_vec(),
                space.matching(compiled.target()).to_vec()
            );
            prop_assert_eq!(restored.snapshot(), bytes);
        }
    }
}

/// The suite-wide pruning pin: with axiom-driven pruning on, the
/// full-suite Figure 15 sweep prunes exactly 408 already-inconsistent
/// search branches across its 6,537 distinct compiled programs — in
/// full-outcome mode, whose spaces enumerate every candidate. These
/// counts are structural facts of the suite: if enumeration order,
/// pruning strength, the arena layout, or eager reclamation's stats
/// accounting drifts, one of them moves.
#[test]
fn full_suite_prunes_exactly_the_pinned_branch_count() {
    let tests = suite::full_suite();
    let stats_for = |threads: usize| {
        *Sweep::with_options(SweepOptions {
            threads,
            outcome_mode: OutcomeMode::FullOutcomes,
            ..SweepOptions::default()
        })
        .run_matrix(&tests, &MatrixSpec::Riscv.stacks())
        .stats()
    };
    let serial = stats_for(1);
    assert_eq!(serial.distinct_programs, 6537);
    assert_eq!(
        serial.space_enumerations, 6537,
        "each distinct program enumerates exactly once"
    );
    assert_eq!(serial.candidates_pruned, 408);
    assert_eq!(
        stats_for(4),
        serial,
        "thread count must not move sweep statistics"
    );
}
