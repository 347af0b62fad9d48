//! Regenerates the compiled-litmus listings of Figures 8, 9, 10, 12
//! and 14: what each key test looks like after compilation with the
//! Intuitive mappings.

use tricheck_compiler::{compile, riscv_mapping, Mapping};
use tricheck_isa::{format_program, Asm, RiscvIsa, SpecVersion};
use tricheck_litmus::{suite, LitmusTest};

fn show(figure: &str, test: &LitmusTest, mapping: &dyn Mapping) {
    let compiled = compile(test, mapping).expect("paper tests compile");
    println!("== {figure}: {} via {} ==", test.name(), mapping.name());
    println!("forbidden/allowed target: {}", test.target());
    println!("{}", format_program(compiled.program(), Asm::RiscV));
}

fn main() {
    let base_intuitive = riscv_mapping(RiscvIsa::Base, SpecVersion::Curr);
    let base_a_intuitive = riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr);
    show(
        "Figure 8 (WRC, Base Intuitive)",
        &suite::fig3_wrc(),
        base_intuitive,
    );
    show(
        "Figure 9 (IRIW all-SC, Base Intuitive)",
        &suite::fig4_iriw_sc(),
        base_intuitive,
    );
    show(
        "Figure 10 (WRC, Base+A Intuitive)",
        &suite::fig3_wrc(),
        base_a_intuitive,
    );
    show(
        "Figure 12 (MP roach-motel, Base+A Intuitive)",
        &suite::fig11_mp_roach_motel(),
        base_a_intuitive,
    );
    show(
        "Figure 14 (MP with address dependency, Base+A Intuitive)",
        &suite::fig13_mp_lazy(),
        base_a_intuitive,
    );
}
