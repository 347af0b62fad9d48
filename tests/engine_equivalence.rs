//! Differential tests for the shared execution-space engine: the
//! enumerate-once/judge-everywhere pipeline must be observationally
//! identical to the naive per-cell recompute it replaced, and the
//! short-circuiting witness-search mode must agree with full enumeration.

use std::sync::OnceLock;

use proptest::prelude::*;
use tricheck::litmus::ExecutionSpace;
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

    /// The engine sweep and the naive per-cell sweep classify every cell
    /// identically, for any subset of the suite and any thread count.
    #[test]
    fn shared_engine_sweep_matches_naive_recompute(tests in arb_subset()) {
        let naive = Sweep::with_options(SweepOptions::with_threads(1)).run_riscv_naive(&tests);
        for threads in [1, 4] {
            let engine = Sweep::with_options(SweepOptions::with_threads(threads)).run_matrix(&tests, &MatrixSpec::Riscv.stacks());
            prop_assert!(
                engine.rows() == naive.rows(),
                "engine (threads={threads}) diverged from naive recompute"
            );
        }
    }

    /// Judging through a shared space gives the same verdict as the
    /// one-shot short-circuiting search, for C11 and for every µarch
    /// model.
    #[test]
    fn shared_space_verdicts_match_one_shot_search(tests in arb_subset()) {
        let c11 = C11Model::new();
        let mapping = riscv_mapping(RiscvIsa::Base, SpecVersion::Curr);
        let models = UarchModel::all_riscv(SpecVersion::Curr);
        for test in &tests {
            let space = ExecutionSpace::new(test.program().clone());
            prop_assert_eq!(
                c11.permits_target_in(&space, test.target()),
                c11.permits_target(test)
            );
            let compiled = compile(test, mapping).unwrap();
            let hw_space = ExecutionSpace::new(compiled.program().clone());
            for model in &models {
                prop_assert_eq!(
                    model.observes_in(&hw_space, compiled.target()),
                    model.observes(compiled.program(), compiled.target())
                );
            }
        }
    }
}

/// Witness-search short-circuiting agrees with full enumeration on the
/// entire 1,701-test suite: the C11 target verdict computed by stopping
/// at the first consistent witness equals membership of the target in the
/// fully-enumerated permitted-outcome set.
#[test]
fn witness_search_agrees_with_full_enumeration_on_full_suite() {
    let c11 = C11Model::new();
    for test in suite::full_suite() {
        let short_circuit = c11.permits_target(&test);
        let full = c11.permitted_outcomes(&test).contains(test.target());
        assert_eq!(short_circuit, full, "{} diverges", test.name());
    }
}

/// The same agreement at the microarchitecture level, on one family
/// (the full suite × 7 models in full-outcome mode would dominate CI).
#[test]
fn uarch_witness_search_agrees_with_full_enumeration() {
    let mapping = riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr);
    let models = UarchModel::all_riscv(SpecVersion::Curr);
    for test in suite::full_suite()
        .iter()
        .filter(|t| t.family() == "corsdwi")
    {
        let compiled = compile(test, mapping).unwrap();
        for model in &models {
            let short_circuit = model.observes(compiled.program(), compiled.target());
            let full = model
                .observable_outcomes(compiled.program(), compiled.observed())
                .contains(compiled.target());
            assert_eq!(short_circuit, full, "{} on {}", test.name(), model.name());
        }
    }
}

/// The full Figure 15 sweep upholds the exactly-once cache contract at
/// suite scale, not just on single families.
#[test]
fn full_suite_sweep_upholds_cache_contract() {
    let tests = suite::full_suite();
    let results = Sweep::new().run_matrix(&tests, &MatrixSpec::Riscv.stacks());
    let stats = results.stats();
    assert_eq!(stats.tests, 1701);
    assert_eq!(stats.cells, 28);
    assert_eq!(stats.c11_evaluations, 1701);
    assert_eq!(stats.compile_calls, 1701 * 4);
    assert_eq!(stats.space_enumerations, stats.distinct_programs);
    assert!(stats.distinct_programs < stats.compile_calls);
    // And the headline number still falls out of the cached pipeline:
    // 144 forbidden-yet-observable outcomes on A9like / Base+A / curr.
    let key = StackKey {
        isa: "Base+A",
        variant: "riscv-curr",
    };
    let a9_bugs = results.bugs_for(key, "A9like");
    assert_eq!(a9_bugs, 144);
}

/// `SpaceSharing::Never` streams every group, so each Figure 15 column
/// (seven models) is judged by its fused kernel over one unpruned
/// enumeration per (test, mapping) instead of a shared space. The rows
/// must equal the default (`Auto`: shared spaces) sweep's, in target and
/// full-outcome mode, with nothing materialized and at most one prelude
/// per (test, mapping).
#[test]
fn never_sharing_streams_figure15_groups_with_identical_rows() {
    let tests: Vec<LitmusTest> = cached_suite().iter().step_by(37).cloned().collect();
    for outcome_mode in [OutcomeMode::Target, OutcomeMode::FullOutcomes] {
        let sweep = |space_sharing| {
            Sweep::with_options(SweepOptions {
                threads: 2,
                outcome_mode,
                space_sharing,
                ..SweepOptions::default()
            })
            .run_matrix(&tests, &MatrixSpec::Riscv.stacks())
        };
        let (shared, streamed) = (sweep(SpaceSharing::Auto), sweep(SpaceSharing::Never));
        assert_eq!(streamed.rows(), shared.rows(), "{outcome_mode:?}");
        assert!(shared.stats().space_enumerations > 0, "{outcome_mode:?}");
        let stats = streamed.stats();
        assert_eq!(stats.distinct_programs, 0, "{outcome_mode:?}");
        assert_eq!(stats.space_enumerations, 0, "{outcome_mode:?}");
        assert_eq!(stats.compile_calls, tests.len() * 4, "{outcome_mode:?}");
        assert!(stats.prelude_misses > 0, "{outcome_mode:?}");
        assert!(
            stats.prelude_misses <= stats.compile_calls,
            "one fused stream per (test, mapping): {outcome_mode:?}"
        );
    }
}
