//! Regenerates the paper's Tables 1–3 (compiler mappings) and
//! Figure 7 (the µSpec model relaxation matrix).

use tricheck_compiler::{power_mapping, riscv_mapping, Mapping, PowerSyncStyle::Leading};
use tricheck_isa::{format_instr, Asm, RiscvIsa, SpecVersion};
use tricheck_litmus::{Expr, MemOrder, Reg};
use tricheck_uarch::{StoreAtomicity, UarchConfig};

fn mapping_row(mapping: &dyn Mapping, dialect: Asm, mo: MemOrder, is_load: bool) -> String {
    let addr = Expr::Const(1);
    let instrs = if is_load {
        mapping.load(Reg(0), addr, mo)
    } else {
        mapping.store(addr, Expr::Const(1), mo, Reg(128))
    };
    match instrs {
        Ok(seq) => seq
            .iter()
            .map(|i| format_instr(i, dialect))
            .collect::<Vec<_>>()
            .join("; "),
        Err(_) => "-".to_string(),
    }
}

fn print_mapping_table(title: &str, dialect: Asm, columns: &[(&str, &dyn Mapping)]) {
    println!("== {title} ==");
    print!("{:<10}", "C11");
    for (name, _) in columns {
        print!(" | {name:<40}");
    }
    println!();
    let rows: [(&str, MemOrder, bool); 6] = [
        ("ld rlx", MemOrder::Rlx, true),
        ("ld acq", MemOrder::Acq, true),
        ("ld sc", MemOrder::Sc, true),
        ("st rlx", MemOrder::Rlx, false),
        ("st rel", MemOrder::Rel, false),
        ("st sc", MemOrder::Sc, false),
    ];
    for (label, mo, is_load) in rows {
        print!("{label:<10}");
        for (_, mapping) in columns {
            print!(" | {:<40}", mapping_row(*mapping, dialect, mo, is_load));
        }
        println!();
    }
    println!();
}

fn print_figure7() {
    println!("== Figure 7: uSpec models (RISC-V-compliant relaxations) ==");
    println!(
        "{:<8} {:>5} {:>5} {:>5} {:>5} {:>6} {:>6}",
        "model", "W->R", "W->W", "R->M", "MCA", "rMCA", "nMCA"
    );
    for cfg in UarchConfig::all_riscv(SpecVersion::Curr) {
        let name = cfg.name.split('/').next().unwrap_or(&cfg.name);
        let tick = |b: bool| if b { "x" } else { "" };
        println!(
            "{:<8} {:>5} {:>5} {:>5} {:>5} {:>6} {:>6}",
            name,
            "x", // all seven models relax W->R
            tick(cfg.relax_ww),
            tick(cfg.relax_rm),
            tick(cfg.atomicity == StoreAtomicity::Mca),
            tick(cfg.atomicity == StoreAtomicity::RMca),
            tick(cfg.atomicity == StoreAtomicity::NMca),
        );
    }
    println!();
}

fn main() {
    let [base_intuitive, base_refined, base_a_intuitive, base_a_refined] = [
        (RiscvIsa::Base, SpecVersion::Curr),
        (RiscvIsa::Base, SpecVersion::Ours),
        (RiscvIsa::BaseA, SpecVersion::Curr),
        (RiscvIsa::BaseA, SpecVersion::Ours),
    ]
    .map(|(isa, version)| riscv_mapping(isa, version));
    print_mapping_table(
        "Table 1: leading-sync C11 -> Power",
        Asm::Power,
        &[("Power (leading-sync)", power_mapping(Leading))],
    );
    print_mapping_table(
        "Table 2: C11 -> RISC-V Base",
        Asm::RiscV,
        &[("Intuitive", base_intuitive), ("Refined", base_refined)],
    );
    print_mapping_table(
        "Table 3: C11 -> RISC-V Base+A",
        Asm::RiscV,
        &[("Intuitive", base_a_intuitive), ("Refined", base_a_refined)],
    );
    print_figure7();
}
