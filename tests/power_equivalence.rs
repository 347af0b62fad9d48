//! Differential tests locking the generalized sweep engine to its naive
//! oracles on the §7 compiler-study paths:
//!
//! - the cached sweep of `MatrixSpec::Power` ({leading,trailing}-sync ×
//!   ARMv7) must be observationally identical to the naive per-cell
//!   recompute, at any thread count;
//! - the full-outcome-set sweep mode (`OutcomeMode::FullOutcomes`) must
//!   agree with `verify_full`-style per-call streaming enumeration on
//!   every test of the 1,701-test suite.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;
use tricheck::core::SweepStats;
use tricheck::prelude::*;

/// The §7 study's row key for one sync placement style.
fn power_key(style: PowerSyncStyle) -> StackKey {
    StackKey {
        isa: "Power",
        variant: style.label(),
    }
}

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

    /// The cached Power sweep and the naive per-cell §7 study classify
    /// every cell identically, for any subset of the suite and any
    /// thread count.
    #[test]
    fn power_engine_sweep_matches_naive_recompute(tests in arb_subset()) {
        let naive = Sweep::with_options(SweepOptions::with_threads(1)).run_matrix_naive(&tests, &MatrixSpec::Power.stacks());
        for threads in [1, 4] {
            let engine = Sweep::with_options(SweepOptions::with_threads(threads)).run_matrix(&tests, &MatrixSpec::Power.stacks());
            prop_assert!(
                engine.rows() == naive.rows(),
                "engine sweep (threads={threads}) diverged from naive recompute"
            );
        }
    }

    /// The same lock in full-outcome-set mode: sharing enumerations and
    /// outcome partitions across cells must not change any set-level
    /// classification.
    #[test]
    fn power_outcome_mode_matches_naive_recompute(tests in arb_subset()) {
        let serial = SweepOptions {
            threads: 1,
            outcome_mode: OutcomeMode::FullOutcomes,
            ..SweepOptions::default()
        };
        let naive = Sweep::with_options(serial).run_matrix_naive(&tests, &MatrixSpec::Power.stacks());
        for threads in [1, 4] {
            let opts = SweepOptions {
                threads,
                outcome_mode: OutcomeMode::FullOutcomes,
                ..SweepOptions::default()
            };
            let engine = Sweep::with_options(opts).run_matrix(&tests, &MatrixSpec::Power.stacks());
            prop_assert!(
                engine.rows() == naive.rows(),
                "outcome-mode engine sweep (threads={threads}) diverged from naive recompute"
            );
        }
    }
}

/// The §7 acceptance criterion: over the full 1,701-test suite, the
/// engine sweep produces exactly the counterexample counts of the naive
/// per-cell study. The 4-cell Power matrix sits below the
/// space-sharing break-even, so the default sweep streams each
/// (test, mapping) through its fused judge (no spaces materialized at
/// all, one prelude per stream) while C11 and compile sharing still
/// hold; forcing `SpaceSharing::Always` restores the materialized engine
/// and its exactly-once contract — with identical rows on all three
/// paths.
#[test]
fn full_suite_power_sweep_matches_naive_and_upholds_contract() {
    let tests = suite::full_suite();
    let sweep = Sweep::new();
    let engine = sweep.run_matrix(&tests, &MatrixSpec::Power.stacks());
    let naive = sweep.run_matrix_naive(&tests, &MatrixSpec::Power.stacks());
    assert_eq!(engine.rows(), naive.rows());

    let stats = engine.stats();
    assert_eq!(stats.tests, 1701);
    assert_eq!(stats.cells, 4);
    assert_eq!(stats.c11_evaluations, 1701, "one C11 verdict per test");
    assert_eq!(
        stats.compile_calls,
        1701 * 2,
        "one compile per (test, sync style)"
    );
    assert_eq!(
        stats.compile_cache_hits,
        1701 * 4 - stats.compile_calls,
        "every other cell visit reuses a compiled program"
    );
    assert_eq!(
        stats.distinct_programs, 0,
        "below the break-even the streaming path materializes nothing"
    );
    assert_eq!(stats.space_enumerations, 0);
    assert_streaming_work(&tests, &MatrixSpec::Power.stacks(), stats);

    // Forced sharing: the pre-break-even engine, whose stats prove the
    // exactly-once contract — each distinct Power program enumerated
    // once across all {mapping × model} cells.
    let shared = Sweep::with_options(SweepOptions {
        space_sharing: SpaceSharing::Always,
        ..SweepOptions::default()
    })
    .run_matrix(&tests, &MatrixSpec::Power.stacks());
    assert_eq!(shared.rows(), naive.rows(), "sharing must not change rows");
    let stats = shared.stats();
    assert_eq!(
        stats.space_enumerations, stats.distinct_programs,
        "each distinct Power program is enumerated exactly once"
    );
    assert!(stats.distinct_programs > 0);
    assert!(stats.distinct_programs < stats.compile_calls);

    // The paper's §7 finding, via the cached sweep: the trailing-sync
    // mapping is invalidated on the compliant ARMv7-A9like machine while
    // leading-sync survives.
    let leading = engine.bugs_for(power_key(PowerSyncStyle::Leading), "ARMv7-A9like");
    let trailing = engine.bugs_for(power_key(PowerSyncStyle::Trailing), "ARMv7-A9like");
    assert_eq!(leading, 0, "leading-sync must survive on ARMv7-A9like");
    assert!(trailing > 0, "trailing-sync must be invalidated");
    // And the load→load-hazard machine breaks even leading-sync (§1–§2).
    let hazard = engine.bugs_for(power_key(PowerSyncStyle::Leading), "ARMv7-A9-ldld-hazard");
    assert!(hazard > 0, "the A9 erratum must surface under leading-sync");
}

/// The x86 study streams too (one model per mapping): the same pins on
/// its streaming work counts, over the full suite.
#[test]
fn full_suite_x86_sweep_streams_once_per_test_and_mapping() {
    let tests = suite::full_suite();
    let engine = Sweep::new().run_matrix(&tests, &MatrixSpec::X86.stacks());
    assert_eq!(
        engine.rows(),
        Sweep::new()
            .run_matrix_naive(&tests, &MatrixSpec::X86.stacks())
            .rows()
    );
    let stats = engine.stats();
    assert_eq!(stats.compile_calls, 1701 * 2);
    assert_eq!(stats.distinct_programs, 0);
    assert_streaming_work(&tests, &MatrixSpec::X86.stacks(), stats);
}

/// Pins a target-mode streaming sweep's µarch work: one fused stream —
/// one kernel prelude — per (test, mapping), and `prelude_hits +
/// prelude_misses` equal to the candidate judgements a per-model oracle
/// counts: each (test, mapping)'s matching candidates, in enumeration
/// order, up to the first at which every model of the mapping has
/// accepted some candidate.
fn assert_streaming_work(tests: &[LitmusTest], stacks: &[MatrixStack<'_>], stats: &SweepStats) {
    let mut groups: Vec<(&dyn Mapping, Vec<&UarchModel>)> = Vec::new();
    for stack in stacks {
        match groups
            .iter_mut()
            .find(|(m, _)| std::ptr::addr_eq(*m, stack.mapping))
        {
            Some((_, models)) => models.push(&stack.model),
            None => groups.push((stack.mapping, vec![&stack.model])),
        }
    }
    let mut judgements = 0;
    for test in tests {
        for (mapping, models) in &groups {
            let compiled = compile(test, *mapping).expect("suite compiles");
            let mut witnessed = vec![false; models.len()];
            tricheck::litmus::enumerate_matching(
                compiled.program(),
                compiled.target(),
                &mut |exec| {
                    judgements += 1;
                    for (seen, model) in witnessed.iter_mut().zip(models) {
                        *seen = *seen || model.consistent(exec);
                    }
                    witnessed.contains(&false)
                },
            );
        }
    }
    assert_eq!(
        stats.prelude_misses, stats.compile_calls,
        "one fused stream per (test, mapping)"
    );
    assert_eq!(
        stats.prelude_hits + stats.prelude_misses,
        judgements,
        "µarch candidate judgements"
    );
}

/// Classification counts per family from per-call streaming enumeration
/// (the pre-engine `verify_full` pipeline: free-function outcome sets,
/// no shared spaces, no partitions) — the oracle for outcome mode.
fn streaming_oracle_rows(
    tests: &[LitmusTest],
    permitted: &[std::collections::BTreeSet<Outcome>],
    mapping: &dyn Mapping,
    model: &UarchModel,
) -> BTreeMap<&'static str, (usize, usize, usize)> {
    let mut by_family: BTreeMap<&'static str, (usize, usize, usize)> = BTreeMap::new();
    for (test, permitted) in tests.iter().zip(permitted) {
        let compiled = compile(test, mapping).expect("suite compiles");
        let observable = model.observable_outcomes(compiled.program(), compiled.observed());
        let entry = by_family.entry(test.family()).or_default();
        if observable.difference(permitted).next().is_some() {
            entry.0 += 1;
        } else if permitted.difference(&observable).next().is_some() {
            entry.1 += 1;
        } else {
            entry.2 += 1;
        }
    }
    by_family
}

/// The outcome-set sweep mode agrees with `verify_full`-style per-call
/// enumeration on all 1,701 tests: for every {mapping × model} cell of
/// the §7 study, the engine's set-level classification counts equal the
/// ones recomputed test-by-test with the one-shot streaming pipeline.
#[test]
fn outcome_mode_agrees_with_per_call_enumeration_on_full_suite() {
    let tests = suite::full_suite();
    let opts = SweepOptions {
        outcome_mode: OutcomeMode::FullOutcomes,
        ..SweepOptions::default()
    };
    let engine = Sweep::with_options(opts).run_matrix(&tests, &MatrixSpec::Power.stacks());

    // The C11 permitted sets, once per test via the streaming free
    // function (deliberately NOT the space engine).
    let c11 = C11Model::new();
    let permitted: Vec<_> = tests.iter().map(|t| c11.permitted_outcomes(t)).collect();

    for style in PowerSyncStyle::ALL {
        let mapping = power_mapping(style);
        for model in UarchModel::all_armv7() {
            let oracle = streaming_oracle_rows(&tests, &permitted, mapping, &model);
            let key = power_key(style);
            for (family, (bugs, strict, equivalent)) in oracle {
                let row = engine
                    .row(key, model.name(), family)
                    .unwrap_or_else(|| panic!("missing row {style} {} {family}", model.name()));
                assert_eq!(
                    (row.bugs, row.overly_strict, row.equivalent),
                    (bugs, strict, equivalent),
                    "outcome-mode divergence: {style} on {} family {family}",
                    model.name()
                );
            }
        }
    }
}

/// `TriCheck::verify_full` (now routed through the shared-space
/// `outcome_set` engine) agrees with the streaming per-call enumeration,
/// across one full family × every §7 cell.
#[test]
fn verify_full_routing_matches_streaming_enumeration() {
    let c11 = C11Model::new();
    for style in PowerSyncStyle::ALL {
        let mapping = power_mapping(style);
        for model in UarchModel::all_armv7() {
            let stack = TriCheck::new(mapping, model.clone());
            for test in cached_suite().iter().filter(|t| t.family() == "corr") {
                let cmp = stack.verify_full(test).expect("suite compiles");
                let permitted = c11.permitted_outcomes(test);
                let compiled = compile(test, mapping).expect("suite compiles");
                let observable = model.observable_outcomes(compiled.program(), compiled.observed());
                assert_eq!(cmp.permitted(), &permitted, "{}", test.name());
                assert_eq!(cmp.observable(), &observable, "{}", test.name());
            }
        }
    }
}
