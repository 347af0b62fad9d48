//! Ablations of the refined (riscv-ours) design: flipping any single §5
//! knob back to its 2016 value re-introduces the corresponding class of
//! C11 violations. This demonstrates that every refinement the paper
//! proposes is load-bearing — none is subsumed by the others.

use tricheck_compiler::{compile, riscv_mapping};
use tricheck_isa::{RiscvIsa, SpecVersion};
use tricheck_litmus::{suite, LitmusTest, MemOrder};
use tricheck_uarch::{ReleasePredecessors, UarchConfig, UarchModel};

fn observable(test: &LitmusTest, isa: RiscvIsa, model: &UarchModel) -> bool {
    let compiled = compile(test, riscv_mapping(isa, SpecVersion::Ours)).expect("compiles");
    model.observes(compiled.program(), compiled.target())
}

#[test]
fn dropping_same_address_ordering_reintroduces_corr() {
    let test = suite::corr([MemOrder::Rlx; 4]);
    // Fully refined: forbidden.
    assert!(!observable(
        &test,
        RiscvIsa::Base,
        &UarchModel::rmm(SpecVersion::Ours)
    ));
    // Refined except §5.1.3: the CoRR bug returns.
    let mut cfg = UarchConfig::rmm(SpecVersion::Ours);
    cfg.same_addr_rr_ordered = false;
    cfg.name = "rMM/ours-minus-5.1.3".into();
    assert!(observable(
        &test,
        RiscvIsa::Base,
        &UarchModel::from_config(cfg)
    ));
}

#[test]
fn dropping_cumulative_releases_reintroduces_base_a_wrc() {
    let test = suite::fig3_wrc();
    assert!(!observable(
        &test,
        RiscvIsa::BaseA,
        &UarchModel::nmm(SpecVersion::Ours)
    ));
    // Refined except §5.2.1: releases publish only their own thread's
    // program-order predecessors again.
    let mut cfg = UarchConfig::nmm(SpecVersion::Ours);
    cfg.release_predecessors = ReleasePredecessors::ProgramOrder;
    cfg.name = "nMM/ours-minus-5.2.1".into();
    assert!(observable(
        &test,
        RiscvIsa::BaseA,
        &UarchModel::from_config(cfg)
    ));
}

#[test]
fn refined_hardware_cannot_rescue_the_unrefined_mapping() {
    // ISA co-design, §5.1.1: cumulative fences only help if the compiler
    // emits them. The riscv-ours microarchitecture still exhibits the WRC
    // bug when fed code from the Intuitive (non-cumulative-fence) mapping.
    let test = suite::fig3_wrc();
    let intuitive = riscv_mapping(RiscvIsa::Base, SpecVersion::Curr);
    let compiled = compile(&test, intuitive).unwrap();
    let model = UarchModel::nmm(SpecVersion::Ours);
    assert!(model.observes(compiled.program(), compiled.target()));
}

#[test]
fn eager_release_sync_forbids_the_lazy_optimization() {
    // §5.2.3 in reverse: re-enabling "synchronize with any load" on the
    // otherwise-refined model makes Figure 13 unobservable again (the
    // lazy-coherence implementation would be outlawed).
    let test = suite::fig13_mp_lazy();
    assert!(observable(
        &test,
        RiscvIsa::BaseA,
        &UarchModel::nmm(SpecVersion::Ours)
    ));
    let mut cfg = UarchConfig::nmm(SpecVersion::Ours);
    cfg.release_sync_any_load = true;
    cfg.name = "nMM/ours-minus-5.2.3".into();
    assert!(!observable(
        &test,
        RiscvIsa::BaseA,
        &UarchModel::from_config(cfg)
    ));
}

#[test]
fn a9like_visibility_knob_controls_the_96_vs_72_split() {
    // §6.1: the only configuration difference between nMM and A9like is
    // whether completed SC-AMO writes are globally visible to any reader.
    let c11 = tricheck_c11::C11Model::new();
    let mapping = riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr);
    let bugs = |model: &UarchModel| {
        suite::wrc_template()
            .instantiate_all()
            .filter(|t| {
                if c11.permits_target(t) {
                    return false;
                }
                let compiled = compile(t, mapping).unwrap();
                model.observes(compiled.program(), compiled.target())
            })
            .count()
    };
    let mut nmm_like_a9 = UarchConfig::nmm(SpecVersion::Curr);
    nmm_like_a9.sc_amo_writes_globally_visible = true;
    nmm_like_a9.name = "nMM+amo-visibility".into();
    assert_eq!(bugs(&UarchModel::nmm(SpecVersion::Curr)), 96);
    assert_eq!(bugs(&UarchModel::from_config(nmm_like_a9)), 72);
}
