//! Running the ISA bugs on *concrete* hardware: the operational
//! store-buffer machines of `tricheck-opsim` execute the compiled litmus
//! tests instruction by instruction, so the paper's axiomatic findings
//! can be watched happening on an actual (simulated) machine.
//!
//! Run with: `cargo run --example operational_witness`

use tricheck::opsim::{outcomes_over_partitions, OpMachine};
use tricheck::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The WRC bug, §5.1.1, as a machine run ---
    let test = suite::fig3_wrc();
    let compiled = compile(&test, riscv_mapping(RiscvIsa::Base, SpecVersion::Curr))?;
    println!("WRC compiled with the Intuitive Base mapping:");
    println!("{}", format_program(compiled.program(), Asm::RiscV));

    // T0 and T1 share a store buffer; T2 drains from memory.
    let machine = OpMachine::nwr_with_groups(vec![vec![0, 1], vec![2]]);
    let outcomes = machine.run(compiled.program(), compiled.observed());
    println!(
        "{} outcomes on {} (T0+T1 share a buffer):",
        outcomes.len(),
        machine.config().name
    );
    for o in &outcomes {
        let marker = if o == compiled.target() {
            "  <-- C11-FORBIDDEN"
        } else {
            ""
        };
        println!("  {o}{marker}");
    }
    assert!(outcomes.contains(compiled.target()));

    // Private buffers: the same machine family cannot produce it.
    let private = OpMachine::nwr_with_groups(vec![vec![0], vec![1], vec![2]]);
    assert!(!private
        .run(compiled.program(), compiled.observed())
        .contains(compiled.target()));
    println!("\nwith private buffers the outcome disappears (store-atomic machine).");

    // --- The refined ISA closes it on every sharing topology ---
    let fixed = compile(&test, riscv_mapping(RiscvIsa::Base, SpecVersion::Ours))?;
    let all = outcomes_over_partitions(
        OpMachine::nwr_with_groups,
        fixed.program(),
        fixed.observed(),
    );
    assert!(!all.contains(fixed.target()));
    println!(
        "after the cumulative-fence refinement, no buffer-sharing topology \
         (all {} partitions) reaches the forbidden outcome.",
        tricheck::opsim::partitions(3).len()
    );

    // --- And the axiomatic model agrees in both directions ---
    let ax = UarchModel::nwr(SpecVersion::Curr);
    let ax_outcomes = ax.observable_outcomes(compiled.program(), compiled.observed());
    assert!(outcomes.is_subset(&ax_outcomes));
    println!(
        "\nevery concrete outcome is admitted by the axiomatic {} model \
         (operational ⊆ axiomatic).",
        ax.name()
    );
    Ok(())
}
