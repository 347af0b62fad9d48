//! Reproduces the paper's opening example (§1 Figure 1, §2): a C11
//! program whose compiled form misbehaves on ARM Cortex-A9 parts due to
//! the acknowledged read-after-read hazard, and ARM's recommended fix
//! (a `dmb` fence after relaxed atomic loads).

use tricheck_c11::C11Model;
use tricheck_compiler::{compile, power_mapping, CompileError, Mapping, PowerSyncStyle};
use tricheck_isa::{format_program, AccessTypes, Asm, FenceKind, HwAnnot};
use tricheck_litmus::{suite, Expr, Instr, MemOrder, Reg};
use tricheck_uarch::UarchModel;

/// The leading-sync ARMv7 mapping with ARM's hazard workaround: a full
/// fence after every (relaxed) atomic load.
struct ArmWithLdLdFix;

impl Mapping for ArmWithLdLdFix {
    fn name(&self) -> &'static str {
        "armv7-leading-sync+ldld-fix"
    }

    fn load(
        &self,
        dst: Reg,
        addr: Expr,
        mo: MemOrder,
    ) -> Result<Vec<Instr<HwAnnot>>, CompileError> {
        let mut seq = power_mapping(PowerSyncStyle::Leading).load(dst, addr, mo)?;
        if mo == MemOrder::Rlx {
            seq.push(Instr::Fence {
                ann: HwAnnot::Fence(FenceKind::CumulativeHeavy),
            });
        }
        Ok(seq)
    }

    fn store(
        &self,
        addr: Expr,
        val: Expr,
        mo: MemOrder,
        scratch: Reg,
    ) -> Result<Vec<Instr<HwAnnot>>, CompileError> {
        power_mapping(PowerSyncStyle::Leading).store(addr, val, mo, scratch)
    }
}

fn main() {
    // Figure 1's program is a same-address read-read test: the CoRR shape
    // with relaxed atomics.
    let test = suite::corr([MemOrder::Rlx; 4]);
    let c11 = C11Model::new();
    println!(
        "C11 program: {} — target outcome {}",
        test.name(),
        test.target()
    );
    println!(
        "C11 verdict: {}\n",
        if c11.permits_target(&test) {
            "permitted"
        } else {
            "forbidden (coherence)"
        }
    );

    let stock = compile(&test, power_mapping(PowerSyncStyle::Leading)).expect("compiles");
    println!(
        "compiled for ARMv7 (leading-sync):\n{}",
        format_program(stock.program(), Asm::Power)
    );

    let hazard = UarchModel::armv7_a9_ldld_hazard();
    let compliant = UarchModel::armv7_a9like();
    println!(
        "on {}: outcome {} — the Figure 1 misbehaviour",
        hazard.name(),
        if hazard.observes(stock.program(), stock.target()) {
            "OBSERVABLE"
        } else {
            "forbidden"
        }
    );
    println!(
        "on {}: outcome {} (ISA-compliant cores are fine)\n",
        compliant.name(),
        if compliant.observes(stock.program(), stock.target()) {
            "OBSERVABLE"
        } else {
            "forbidden"
        }
    );

    let fixed = compile(&test, &ArmWithLdLdFix).expect("compiles");
    println!(
        "with ARM's recommended fix (dmb after relaxed atomic loads):\n{}",
        format_program(fixed.program(), Asm::Power)
    );
    println!(
        "on {}: outcome {} — the fence workaround closes the hazard",
        hazard.name(),
        if hazard.observes(fixed.program(), fixed.target()) {
            "OBSERVABLE"
        } else {
            "forbidden"
        }
    );
    println!(
        "\n(the cost of this workaround is quantified by Figure 2: \
         run `cargo run --release -p tricheck-bench --bin fig2_sieve`)"
    );
    let _ = AccessTypes::R; // silence unused-import lints in minimal builds
}
