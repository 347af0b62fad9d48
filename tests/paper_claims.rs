//! Cross-crate integration tests asserting the paper's qualitative
//! claims end-to-end through the public facade API.

use tricheck::prelude::*;

fn stack(isa: RiscvIsa, version: SpecVersion, model: UarchModel) -> TriCheck<'static> {
    TriCheck::new(riscv_mapping(isa, version), model)
}

#[test]
fn abstract_claim_a_riscv_compliant_uarch_shows_c11_violations() {
    // "a RISC-V-compliant microarchitecture allows 144 outcomes forbidden
    // by C11 to be observed out of 1,701 litmus tests examined"
    let suite = suite::full_suite();
    assert_eq!(suite.len(), 1701);
    let sweep = Sweep::new();
    let results = sweep.run_stack(
        &suite,
        riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr),
        &UarchModel::a9like(SpecVersion::Curr),
    );
    let bugs = results
        .iter()
        .filter(|r| r.classification() == Classification::Bug)
        .count();
    assert_eq!(bugs, 144);
}

#[test]
fn conclusion_claim_issues_not_present_on_all_compliant_designs() {
    // §9: "the same issues were not present across all RISC-V-compliant
    // hardware designs" — the strong models show zero bugs.
    let suite = suite::full_suite();
    let sweep = Sweep::new();
    for model in [
        UarchModel::wr(SpecVersion::Curr),
        UarchModel::rwr(SpecVersion::Curr),
        UarchModel::rwm(SpecVersion::Curr),
    ] {
        for isa in [RiscvIsa::Base, RiscvIsa::BaseA] {
            let results = sweep.run_stack(&suite, riscv_mapping(isa, SpecVersion::Curr), &model);
            let bugs = results
                .iter()
                .filter(|r| r.classification() == Classification::Bug)
                .count();
            assert_eq!(bugs, 0, "{} under {isa} must be bug-free", model.name());
        }
    }
}

#[test]
fn refinement_eliminates_every_bug_for_every_model_and_isa() {
    // §5.3/§6: riscv-ours + refined mappings are bug-free everywhere.
    let suite = suite::full_suite();
    let sweep = Sweep::new();
    for isa in [RiscvIsa::Base, RiscvIsa::BaseA] {
        for model in UarchModel::all_riscv(SpecVersion::Ours) {
            let results = sweep.run_stack(&suite, riscv_mapping(isa, SpecVersion::Ours), &model);
            let bugs = results
                .iter()
                .filter(|r| r.classification() == Classification::Bug)
                .count();
            assert_eq!(
                bugs,
                0,
                "{} under {isa} riscv-ours must be bug-free",
                model.name()
            );
        }
    }
}

#[test]
fn section_5_1_1_wrc_needs_cumulative_lightweight_fences() {
    let t = suite::fig3_wrc();
    let buggy = stack(
        RiscvIsa::Base,
        SpecVersion::Curr,
        UarchModel::nwr(SpecVersion::Curr),
    );
    assert_eq!(
        buggy.verify(&t).unwrap().classification(),
        Classification::Bug
    );
    let fixed = stack(
        RiscvIsa::Base,
        SpecVersion::Ours,
        UarchModel::nwr(SpecVersion::Ours),
    );
    assert_eq!(
        fixed.verify(&t).unwrap().classification(),
        Classification::Equivalent
    );
}

#[test]
fn section_5_1_2_iriw_needs_cumulative_heavyweight_fences() {
    let t = suite::fig4_iriw_sc();
    let buggy = stack(
        RiscvIsa::Base,
        SpecVersion::Curr,
        UarchModel::a9like(SpecVersion::Curr),
    );
    assert_eq!(
        buggy.verify(&t).unwrap().classification(),
        Classification::Bug
    );
    let fixed = stack(
        RiscvIsa::Base,
        SpecVersion::Ours,
        UarchModel::a9like(SpecVersion::Ours),
    );
    assert_eq!(
        fixed.verify(&t).unwrap().classification(),
        Classification::Equivalent
    );
}

#[test]
fn section_5_1_3_same_address_load_ordering() {
    let t = suite::corr([MemOrder::Rlx; 4]);
    let buggy = stack(
        RiscvIsa::Base,
        SpecVersion::Curr,
        UarchModel::rmm(SpecVersion::Curr),
    );
    assert_eq!(
        buggy.verify(&t).unwrap().classification(),
        Classification::Bug
    );
    let fixed = stack(
        RiscvIsa::Base,
        SpecVersion::Ours,
        UarchModel::rmm(SpecVersion::Ours),
    );
    assert_eq!(
        fixed.verify(&t).unwrap().classification(),
        Classification::Equivalent
    );
}

#[test]
fn section_5_2_1_amo_releases_must_be_cumulative() {
    let t = suite::fig3_wrc();
    let buggy = stack(
        RiscvIsa::BaseA,
        SpecVersion::Curr,
        UarchModel::nmm(SpecVersion::Curr),
    );
    assert_eq!(
        buggy.verify(&t).unwrap().classification(),
        Classification::Bug
    );
    let fixed = stack(
        RiscvIsa::BaseA,
        SpecVersion::Ours,
        UarchModel::nmm(SpecVersion::Ours),
    );
    assert_eq!(
        fixed.verify(&t).unwrap().classification(),
        Classification::Equivalent
    );
}

#[test]
fn section_5_2_2_roach_motel_strictness_reduced() {
    let t = suite::fig11_mp_roach_motel();
    let strict = stack(
        RiscvIsa::BaseA,
        SpecVersion::Curr,
        UarchModel::a9like(SpecVersion::Curr),
    );
    assert_eq!(
        strict.verify(&t).unwrap().classification(),
        Classification::OverlyStrict
    );
    let freed = stack(
        RiscvIsa::BaseA,
        SpecVersion::Ours,
        UarchModel::a9like(SpecVersion::Ours),
    );
    assert_eq!(
        freed.verify(&t).unwrap().classification(),
        Classification::Equivalent
    );
}

#[test]
fn section_5_2_3_lazy_cumulativity_strictness_reduced() {
    let t = suite::fig13_mp_lazy();
    let strict = stack(
        RiscvIsa::BaseA,
        SpecVersion::Curr,
        UarchModel::nmm(SpecVersion::Curr),
    );
    assert_eq!(
        strict.verify(&t).unwrap().classification(),
        Classification::OverlyStrict
    );
    let freed = stack(
        RiscvIsa::BaseA,
        SpecVersion::Ours,
        UarchModel::nmm(SpecVersion::Ours),
    );
    assert_eq!(
        freed.verify(&t).unwrap().classification(),
        Classification::Equivalent
    );
}

#[test]
fn section_7_trailing_sync_counterexamples_found() {
    // §7: TriCheck invalidates the "proven-correct" trailing-sync mapping
    // on the A9like microarchitecture; leading-sync survives the suite.
    let tests = suite::full_suite();
    let sweep = Sweep::new();
    let model = UarchModel::armv7_a9like();

    let leading = sweep.run_stack(&tests, power_mapping(PowerSyncStyle::Leading), &model);
    assert_eq!(
        leading
            .iter()
            .filter(|r| r.classification() == Classification::Bug)
            .count(),
        0,
        "leading-sync must survive the suite"
    );

    let trailing = sweep.run_stack(&tests, power_mapping(PowerSyncStyle::Trailing), &model);
    let bugs: Vec<_> = trailing
        .iter()
        .filter(|r| r.classification() == Classification::Bug)
        .map(TestResult::name)
        .collect();
    assert!(!bugs.is_empty(), "trailing-sync must be invalidated");
    // The counterexamples live where the paper's loophole lives: SC
    // atomics mixed with weaker orders on causality tests.
    assert!(bugs
        .iter()
        .all(|name| name.starts_with("iriw") || name.starts_with("rwc")));
}

#[test]
fn arm_load_load_hazard_and_fix() {
    // §1 Figure 1 + §2: the Cortex-A9 read-after-read hazard makes a
    // C11-forbidden same-address outcome observable; the ISA-compliant
    // model does not.
    let t = suite::corr([MemOrder::Rlx; 4]);
    let c11 = C11Model::new();
    assert!(!c11.permits_target(&t));
    let compiled = compile(&t, power_mapping(PowerSyncStyle::Leading)).unwrap();
    assert!(UarchModel::armv7_a9_ldld_hazard().observes(compiled.program(), compiled.target()));
    assert!(!UarchModel::armv7_a9like().observes(compiled.program(), compiled.target()));
}
