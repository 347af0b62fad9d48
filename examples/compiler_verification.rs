//! Using TriCheck to audit compiler mappings (the paper's §7): compare
//! the leading-sync and trailing-sync C11→Power mappings on an
//! ARMv7-Cortex-A9-like microarchitecture, then audit a deliberately
//! broken custom mapping to show how bugs are localized.
//!
//! Run with: `cargo run --release --example compiler_verification`

use tricheck::compiler::CompileError;
use tricheck::litmus::{Expr, Instr, Reg};
use tricheck::prelude::*;

/// A deliberately broken mapping: like leading-sync, but it "optimizes
/// away" the release fence (a classic miscompilation).
struct DroppedReleaseFence;

impl Mapping for DroppedReleaseFence {
    fn name(&self) -> &'static str {
        "power-dropped-release-fence"
    }

    fn load(
        &self,
        dst: Reg,
        addr: Expr,
        mo: MemOrder,
    ) -> Result<Vec<Instr<HwAnnot>>, CompileError> {
        power_mapping(PowerSyncStyle::Leading).load(dst, addr, mo)
    }

    fn store(
        &self,
        addr: Expr,
        val: Expr,
        mo: MemOrder,
        scratch: Reg,
    ) -> Result<Vec<Instr<HwAnnot>>, CompileError> {
        match mo {
            // BUG: releases compiled as plain stores.
            MemOrder::Rel => Ok(vec![Instr::Write {
                addr,
                val,
                ann: HwAnnot::Plain,
            }]),
            _ => power_mapping(PowerSyncStyle::Leading).store(addr, val, mo, scratch),
        }
    }
}

fn audit(mapping: &dyn Mapping, tests: &[LitmusTest], machine: &UarchModel) {
    let sweep = Sweep::new();
    let results = sweep.run_stack(tests, mapping, machine);
    let bugs: Vec<_> = results
        .iter()
        .filter(|r| r.classification() == Classification::Bug)
        .collect();
    println!(
        "{}: {} bugs / {} tests",
        mapping.name(),
        bugs.len(),
        results.len()
    );
    for b in bugs.iter().take(5) {
        println!("   counterexample: {}", b.name());
    }
}

fn main() {
    let machine = UarchModel::armv7_a9like();
    let tests = suite::full_suite();
    println!(
        "auditing C11→Power mappings on {} ({} tests)\n",
        machine.name(),
        tests.len()
    );

    for style in PowerSyncStyle::ALL {
        audit(power_mapping(style), &tests, &machine);
    }
    audit(&DroppedReleaseFence, &tests, &machine);

    println!(
        "\nThe trailing-sync counterexamples reproduce the paper's §7 finding; \
         the dropped-release-fence mapping shows how a compiler bug surfaces \
         as message-passing failures."
    );
}
