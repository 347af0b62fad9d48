//! C11 → ISA compiler mappings — TriCheck's Step 2 (HLL→ISA COMPILATION).
//!
//! A [`Mapping`] turns each C11 atomic access into a sequence of hardware
//! instructions (fences, plain accesses, AMOs). Every mapping the paper
//! evaluates is a [`TableMapping`]: one row per (operation, memory
//! orders), in the [table-row syntax](table) that runtime stack files
//! use.
//!
//! | mapping | paper artifact | rows live in |
//! |---------|----------------|--------------|
//! | `riscv-base-intuitive` | Table 2, "Intuitive" column | this crate, [`riscv_mapping`] |
//! | `riscv-base-refined` | Table 2, "Refined" column (§5.3) | this crate, [`riscv_mapping`] |
//! | `riscv-base+a-intuitive` | Table 3, "Intuitive" column | this crate, [`riscv_mapping`] |
//! | `riscv-base+a-refined` | Table 3, "Refined" column (§5.3) | this crate, [`riscv_mapping`] |
//! | `power-leading-sync` | Table 1 (McKenney–Silvera leading-sync) | this crate, [`power_mapping`] |
//! | `power-trailing-sync` | Batty et al. trailing-sync (§7) | this crate, [`power_mapping`] |
//! | `x86-sc-atomics` | the standard C11 → x86 SC-atomics mapping | `models/x86-tso.stack` |
//! | `x86-relaxed` | unfenced x86 strawman (exposes SC store buffering) | `models/x86-tso.stack` |
//!
//! The x86 mappings are loaded with the rest of their stack file by
//! `tricheck_core::MatrixSpec::X86`.
//!
//! [`compile`] applies a mapping to a whole litmus test, preserving the
//! observable registers so language-level and ISA-level outcomes can be
//! compared directly (Step 4).
//!
//! # Examples
//!
//! ```
//! use tricheck_compiler::{compile, riscv_mapping};
//! use tricheck_isa::{format_program, Asm, RiscvIsa, SpecVersion};
//! use tricheck_litmus::suite;
//!
//! let intuitive = riscv_mapping(RiscvIsa::Base, SpecVersion::Curr);
//! let compiled = compile(&suite::fig3_wrc(), intuitive)?;
//! let listing = format_program(compiled.program(), Asm::RiscV);
//! assert!(listing.contains("fence rw, w")); // the release-side fence
//! # Ok::<(), tricheck_compiler::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::sync::LazyLock;

use tricheck_isa::{HwAnnot, RiscvIsa, SpecVersion};
use tricheck_litmus::{
    Expr, Instr, LitmusTest, MemOrder, Outcome, Program, ProgramError, Reg, RmwKind,
};

pub mod table;

pub use table::{order_word, reachable_orders, MapOp, MapStep, TableMapping};

/// Errors produced while compiling a litmus test.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// The mapping cannot express this C11 construct (e.g. C11 fences, or
    /// RMWs on the fence-only Base ISA).
    Unsupported {
        /// The mapping that failed.
        mapping: &'static str,
        /// What it could not compile.
        construct: &'static str,
    },
    /// The compiled program failed validation (e.g. grew past the event
    /// limit after fence insertion).
    InvalidProgram(ProgramError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unsupported { mapping, construct } => {
                write!(f, "mapping {mapping} does not support {construct}")
            }
            CompileError::InvalidProgram(e) => write!(f, "compiled program invalid: {e}"),
        }
    }
}

impl Error for CompileError {}

impl From<ProgramError> for CompileError {
    fn from(e: ProgramError) -> Self {
        CompileError::InvalidProgram(e)
    }
}

/// Fresh scratch registers for AMO-store idioms start here, well above the
/// registers litmus templates use.
const SCRATCH_BASE: u8 = 128;

/// A C11 → ISA compiler mapping (one column of the paper's Tables 1–3).
pub trait Mapping: Sync {
    /// The mapping's name as used in reports.
    fn name(&self) -> &'static str;

    /// Compiles an atomic load into hardware instructions.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Unsupported`] if the mapping cannot express
    /// the access.
    fn load(&self, dst: Reg, addr: Expr, mo: MemOrder)
        -> Result<Vec<Instr<HwAnnot>>, CompileError>;

    /// Compiles an atomic store. `scratch` is a fresh register the mapping
    /// may use (AMO-store idioms discard the old value into it).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Unsupported`] if the mapping cannot express
    /// the access.
    fn store(
        &self,
        addr: Expr,
        val: Expr,
        mo: MemOrder,
        scratch: Reg,
    ) -> Result<Vec<Instr<HwAnnot>>, CompileError>;

    /// Compiles an atomic read-modify-write.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Unsupported`] by default; among the
    /// built-ins only the Base+A tables define RMW rows (the paper's
    /// suite does not exercise C11 RMWs).
    fn rmw(
        &self,
        _dst: Reg,
        _addr: Expr,
        _kind: RmwKind,
        _mo: MemOrder,
    ) -> Result<Vec<Instr<HwAnnot>>, CompileError> {
        Err(CompileError::Unsupported {
            mapping: self.name(),
            construct: "C11 RMW",
        })
    }
}

/// The six built-in RISC-V and Power mappings, one table each, in the
/// [table-row syntax](table) runtime stack files use. Indexed by
/// [`riscv_mapping`] and [`power_mapping`]; the x86 study's two tables
/// live in `models/x86-tso.stack`.
const BUILTIN_TABLES: [(&str, &str); 6] = [
    // Table 2, "Intuitive": from the 2016 manual's fence descriptions.
    (
        "riscv-base-intuitive",
        "ld rlx = ld
         ld acq = ld; fence r,rw
         ld sc = fence rw,rw; ld; fence rw,rw
         st rlx = st
         st rel = fence rw,w; st
         st sc = fence rw,rw; st",
    ),
    // Table 2, "Refined": the proposed cumulative fences (§5.3).
    (
        "riscv-base-refined",
        "ld rlx = ld
         ld acq = ld; fence r,rw
         ld sc = hwfence; ld; fence r,rw
         st rlx = st
         st rel = lwfence; st
         st sc = hwfence; st",
    ),
    // Table 3, "Intuitive": AMOADD-zero loads, AMOSWAP stores; the 2016
    // ISA's `aq.rl` implies store atomicity, hence `.sc`.
    (
        "riscv-base+a-intuitive",
        "ld rlx = ld
         ld acq = amo.ld.aq
         ld sc = amo.ld.aq.rl.sc
         st rlx = st
         st rel = amo.st.rl
         st sc = amo.st.aq.rl.sc
         rmw rlx = rmw
         rmw acq = rmw.aq
         rmw rel = rmw.rl
         rmw acq-rel|sc = rmw.aq.rl.sc",
    ),
    // Table 3, "Refined": the decoupled `.sc` bit (§5.2.2, §5.3).
    (
        "riscv-base+a-refined",
        "ld rlx = ld
         ld acq = amo.ld.aq
         ld sc = amo.ld.aq.sc
         st rlx = st
         st rel = amo.st.rl
         st sc = amo.st.rl.sc
         rmw rlx = rmw
         rmw acq = rmw.aq
         rmw rel = rmw.rl
         rmw acq-rel = rmw.aq.rl
         rmw sc = rmw.aq.rl.sc",
    ),
    // Table 1: McKenney–Silvera leading-sync (`hwfence` is `sync`).
    (
        "power-leading-sync",
        "ld rlx = ld
         ld acq = ld; ctrlisync
         ld sc = hwfence; ld; ctrlisync
         st rlx = st
         st rel = lwfence; st
         st sc = hwfence; st",
    ),
    // Batty et al. trailing-sync, invalidated by the §7 analysis.
    (
        "power-trailing-sync",
        "ld rlx = ld
         ld acq = ld; ctrlisync
         ld sc = ld; hwfence
         st rlx = st
         st rel = lwfence; st
         st sc = lwfence; st; hwfence",
    ),
];

/// [`BUILTIN_TABLES`], parsed once per process so every caller gets the
/// same `&'static` mapping: sweeps group stacks by mapping identity.
static BUILTINS: LazyLock<[TableMapping; 6]> = LazyLock::new(|| {
    BUILTIN_TABLES.map(|(name, rows)| {
        let mut table = TableMapping::new(name);
        for row in rows.lines() {
            table
                .parse_line(row)
                .unwrap_or_else(|e| panic!("built-in mapping {name}: '{row}': {e}"));
        }
        table
    })
});

/// The mapping the paper evaluates for a given RISC-V ISA and refinement
/// stage (Table 2 for Base, Table 3 for Base+A; "Intuitive" under
/// `riscv-curr`, "Refined" under `riscv-ours`).
#[must_use]
pub fn riscv_mapping(isa: RiscvIsa, version: SpecVersion) -> &'static dyn Mapping {
    let index = match (isa, version) {
        (RiscvIsa::Base, SpecVersion::Curr) => 0,
        (RiscvIsa::Base, SpecVersion::Ours) => 1,
        (RiscvIsa::BaseA, SpecVersion::Curr) => 2,
        (RiscvIsa::BaseA, SpecVersion::Ours) => 3,
    };
    &BUILTINS[index]
}

/// Where the §7 C11 → Power mappings place the heavyweight `sync` of an
/// SC access — the axis the compiler study sweeps over.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PowerSyncStyle {
    /// McKenney–Silvera leading-sync (Table 1).
    Leading,
    /// Batty et al. trailing-sync.
    Trailing,
}

impl PowerSyncStyle {
    /// Both styles, in the paper's presentation order.
    pub const ALL: [PowerSyncStyle; 2] = [PowerSyncStyle::Leading, PowerSyncStyle::Trailing];

    /// The short label used in reports and row keys.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PowerSyncStyle::Leading => "leading-sync",
            PowerSyncStyle::Trailing => "trailing-sync",
        }
    }
}

impl fmt::Display for PowerSyncStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The §7 compiler-study mapping for one sync placement style.
#[must_use]
pub fn power_mapping(style: PowerSyncStyle) -> &'static dyn Mapping {
    match style {
        PowerSyncStyle::Leading => &BUILTINS[4],
        PowerSyncStyle::Trailing => &BUILTINS[5],
    }
}

/// A compiled litmus test: the ISA-level program plus the original test's
/// target outcome (observable registers are preserved by compilation).
#[derive(Clone, Debug)]
pub struct CompiledTest {
    name: String,
    mapping: &'static str,
    program: Program<HwAnnot>,
    target: Outcome,
    observed: Vec<(usize, Reg)>,
}

impl CompiledTest {
    /// The compiled test's name (`<source>@<mapping>`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The mapping that produced it.
    #[must_use]
    pub fn mapping(&self) -> &'static str {
        self.mapping
    }

    /// The hardware-level program.
    #[must_use]
    pub fn program(&self) -> &Program<HwAnnot> {
        &self.program
    }

    /// The target outcome carried over from the source test.
    #[must_use]
    pub fn target(&self) -> &Outcome {
        &self.target
    }

    /// The observed registers carried over from the source test.
    #[must_use]
    pub fn observed(&self) -> &[(usize, Reg)] {
        &self.observed
    }
}

/// Compiles a C11 litmus test with the given mapping (Step 2 of the
/// toolflow). Loads keep their destination registers, so the compiled
/// test's outcome space is directly comparable to the C11 test's.
///
/// # Errors
///
/// Returns a [`CompileError`] if the mapping cannot express one of the
/// test's accesses or the result fails program validation.
pub fn compile(test: &LitmusTest, mapping: &dyn Mapping) -> Result<CompiledTest, CompileError> {
    let mut threads = Vec::with_capacity(test.program().threads().len());
    for thread in test.program().threads() {
        let mut out = Vec::new();
        let mut scratch = SCRATCH_BASE;
        let mut next_scratch = || {
            let r = Reg(scratch);
            scratch = scratch.checked_add(1).expect("scratch registers exhausted");
            r
        };
        for instr in thread {
            match instr {
                Instr::Read { dst, addr, ann } => {
                    out.extend(mapping.load(*dst, *addr, *ann)?);
                }
                Instr::Write { addr, val, ann } => {
                    out.extend(mapping.store(*addr, *val, *ann, next_scratch())?);
                }
                Instr::Rmw {
                    dst,
                    addr,
                    kind,
                    ann,
                } => {
                    out.extend(mapping.rmw(*dst, *addr, *kind, *ann)?);
                }
                Instr::Fence { .. } => {
                    return Err(CompileError::Unsupported {
                        mapping: mapping.name(),
                        construct: "C11 fence",
                    });
                }
            }
        }
        threads.push(out);
    }
    let program = Program::new(threads, test.program().locations().iter().copied())?;
    Ok(CompiledTest {
        name: format!("{}@{}", test.name(), mapping.name()),
        mapping: mapping.name(),
        program,
        target: test.target().clone(),
        observed: test.observed().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricheck_isa::{format_program, Asm, FenceKind};
    use tricheck_litmus::suite;

    use tricheck_isa::RiscvIsa::{Base, BaseA};
    use tricheck_isa::SpecVersion::{Curr, Ours};

    use crate::table::{reachable_orders, MapOp};

    fn listing(test: &LitmusTest, mapping: &dyn Mapping, dialect: Asm) -> String {
        format_program(compile(test, mapping).expect("compiles").program(), dialect)
    }

    #[test]
    fn figure8_wrc_base_intuitive() {
        let out = listing(&suite::fig3_wrc(), riscv_mapping(Base, Curr), Asm::RiscV);
        let expected = "\
T0:
  sw 1, (x)
T1:
  lw r0, (x)
  fence rw, w
  sw 1, (y)
T2:
  lw r1, (y)
  fence r, rw
  lw r2, (x)
";
        assert_eq!(out, expected);
    }

    #[test]
    fn figure9_iriw_base_intuitive_fence_count() {
        let compiled = compile(&suite::fig4_iriw_sc(), riscv_mapping(Base, Curr)).unwrap();
        // st sc = fence;st (1 fence each on T0/T1); ld sc = fence;ld;fence
        // (2 fences per load, 2 loads per reader thread).
        let fences: usize = compiled
            .program()
            .threads()
            .iter()
            .flatten()
            .filter(|i| matches!(i, Instr::Fence { .. }))
            .count();
        assert_eq!(fences, 1 + 1 + 4 + 4);
    }

    #[test]
    fn figure10_wrc_base_a_intuitive() {
        let out = listing(&suite::fig3_wrc(), riscv_mapping(BaseA, Curr), Asm::RiscV);
        let expected = "\
T0:
  sw 1, (x)
T1:
  lw r0, (x)
  amoswap.w.rl r128, 1, (y)
T2:
  amoadd.w.aq r1, 0, (y)
  lw r2, (x)
";
        assert_eq!(out, expected);
    }

    #[test]
    fn figure12_roach_motel_base_a_intuitive_uses_aq_rl() {
        let out = listing(
            &suite::fig11_mp_roach_motel(),
            riscv_mapping(BaseA, Curr),
            Asm::RiscV,
        );
        assert!(
            out.contains("amoswap.w.aq.rl"),
            "SC store must be AMO.aq.rl:\n{out}"
        );
        assert!(
            out.contains("amoadd.w.aq.rl"),
            "SC load must be AMO.aq.rl:\n{out}"
        );
    }

    #[test]
    fn refined_roach_motel_decouples_sc_bit() {
        let out = listing(
            &suite::fig11_mp_roach_motel(),
            riscv_mapping(BaseA, Ours),
            Asm::RiscV,
        );
        assert!(
            out.contains("amoswap.w.rl.sc"),
            "SC store must be AMO.rl.sc:\n{out}"
        );
        assert!(
            out.contains("amoadd.w.aq.sc"),
            "SC load must be AMO.aq.sc:\n{out}"
        );
    }

    #[test]
    fn figure14_lazy_cumulativity_base_a_intuitive() {
        let out = listing(
            &suite::fig13_mp_lazy(),
            riscv_mapping(BaseA, Curr),
            Asm::RiscV,
        );
        let expected = "\
T0:
  amoswap.w.rl r128, 1, (x)
  amoswap.w.rl r129, 1, (y)
T1:
  lw r0, (y)
  amoadd.w.aq r1, 0, (r0)
";
        assert_eq!(out, expected);
    }

    #[test]
    fn base_refined_uses_cumulative_fences() {
        let out = listing(&suite::fig3_wrc(), riscv_mapping(Base, Ours), Asm::RiscV);
        assert!(out.contains("lwf"), "release must use lwf:\n{out}");
        let sc = listing(
            &suite::sb([MemOrder::Sc; 4]),
            riscv_mapping(Base, Ours),
            Asm::RiscV,
        );
        assert!(sc.contains("hwf"), "SC accesses must use hwf:\n{sc}");
    }

    #[test]
    fn table1_leading_sync_power() {
        let out = listing(
            &suite::mp([MemOrder::Sc; 4]),
            power_mapping(PowerSyncStyle::Leading),
            Asm::Power,
        );
        let expected = "\
T0:
  sync
  st 1, (x)
  sync
  st 1, (y)
T1:
  sync
  ld r0, (y)
  ctrlisync
  sync
  ld r1, (x)
  ctrlisync
";
        assert_eq!(out, expected);
    }

    #[test]
    fn trailing_sync_places_sync_after_sc_accesses() {
        let compiled = compile(
            &suite::sb([MemOrder::Sc; 4]),
            power_mapping(PowerSyncStyle::Trailing),
        )
        .unwrap();
        let t0 = &compiled.program().threads()[0];
        // st sc = lwsync; st; sync — then ld sc = ld; sync.
        assert!(matches!(
            t0[0],
            Instr::Fence {
                ann: HwAnnot::Fence(FenceKind::CumulativeLight)
            }
        ));
        assert!(matches!(t0[1], Instr::Write { .. }));
        assert!(matches!(
            t0[2],
            Instr::Fence {
                ann: HwAnnot::Fence(FenceKind::CumulativeHeavy)
            }
        ));
        assert!(matches!(t0[3], Instr::Read { .. }));
        assert!(matches!(
            t0[4],
            Instr::Fence {
                ann: HwAnnot::Fence(FenceKind::CumulativeHeavy)
            }
        ));
    }

    #[test]
    fn compilation_preserves_observed_registers() {
        for mapping in [
            riscv_mapping(Base, Curr),
            riscv_mapping(BaseA, Curr),
            power_mapping(PowerSyncStyle::Leading),
        ] {
            let test = suite::fig3_wrc();
            let compiled = compile(&test, mapping).unwrap();
            assert_eq!(compiled.observed(), test.observed());
            assert_eq!(compiled.target(), test.target());
        }
    }

    #[test]
    fn whole_suite_compiles_under_every_riscv_mapping() {
        for (isa, version) in [
            (RiscvIsa::Base, SpecVersion::Curr),
            (RiscvIsa::Base, SpecVersion::Ours),
            (RiscvIsa::BaseA, SpecVersion::Curr),
            (RiscvIsa::BaseA, SpecVersion::Ours),
        ] {
            let mapping = riscv_mapping(isa, version);
            for test in suite::full_suite() {
                compile(&test, mapping).unwrap_or_else(|e| {
                    panic!("{} fails under {}: {e}", test.name(), mapping.name())
                });
            }
        }
    }

    #[test]
    fn rmw_unsupported_on_base() {
        let err = riscv_mapping(Base, Curr)
            .rmw(Reg(0), Expr::Const(1), RmwKind::FetchAddZero, MemOrder::Sc)
            .unwrap_err();
        assert!(matches!(
            err,
            CompileError::Unsupported {
                construct: "C11 RMW",
                ..
            }
        ));
    }

    /// W004's rule on the built-in tables: `ld` and `st` define every
    /// reachable order, `rmw` all of them or none, and no row is dead.
    #[test]
    fn builtin_tables_cover_exactly_the_reachable_orders() {
        use MemOrder::{Acq, AcqRel, Rel, Rlx, Sc};
        for ((name, _), table) in BUILTIN_TABLES.iter().zip(BUILTINS.iter()) {
            for op in [MapOp::Load, MapOp::Store, MapOp::Rmw] {
                let defined: Vec<MemOrder> = [Rlx, Acq, Rel, AcqRel, Sc]
                    .into_iter()
                    .filter(|&mo| table.defines(op, mo))
                    .collect();
                let reachable = reachable_orders(op);
                let no_rmw = op == MapOp::Rmw && defined.is_empty();
                assert!(
                    no_rmw || defined == reachable,
                    "{name}: {op:?} rows for {defined:?}, reachable {reachable:?}"
                );
            }
        }
    }
}
