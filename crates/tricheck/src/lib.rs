//! **TriCheck** — full-stack memory consistency model (MCM) verification
//! at the trisection of software, hardware, and ISA.
//!
//! This is the facade crate of the TriCheck reproduction (Trippel et al.,
//! ASPLOS 2017): it re-exports every layer of the stack under one roof.
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`rel`] | `tricheck-rel` | bitset relation algebra + the axiomatic-model IR |
//! | [`litmus`] | `tricheck-litmus` | micro-IR, enumeration, test generator |
//! | [`c11`] | `tricheck-c11` | the C11 axiomatic model (Step 1) |
//! | [`isa`] | `tricheck-isa` | RISC-V / Power instruction annotations |
//! | [`compiler`] | `tricheck-compiler` | Tables 1–3 mappings (Step 2) |
//! | [`uarch`] | `tricheck-uarch` | the seven µSpec models (Step 3) |
//! | [`core`] | `tricheck-core` | classification & sweeps (Step 4) |
//! | [`dist`] | `tricheck-dist` | sharded multi-process sweeps + on-disk store |
//! | [`trace`] | `tricheck-trace` | structured tracing + metrics for the pipeline |
//! | [`opsim`] | `tricheck-opsim` | operational store-buffer machines |
//! | [`sieve`] | `tricheck-sieve` | the Figure 2 workload |
//!
//! # Quickstart
//!
//! ```
//! use tricheck::prelude::*;
//!
//! // Build a C11 litmus test (write-to-read causality, Figure 3).
//! let test = suite::fig3_wrc();
//!
//! // Assemble a full stack: Intuitive Base mapping (Table 2) on the
//! // shared-store-buffer microarchitecture, under the 2016 RISC-V spec.
//! let intuitive = riscv_mapping(RiscvIsa::Base, SpecVersion::Curr);
//! let stack = TriCheck::new(intuitive, UarchModel::nwr(SpecVersion::Curr));
//!
//! // C11 forbids the outcome, the hardware exhibits it: a bug.
//! assert_eq!(stack.verify(&test)?.classification(), Classification::Bug);
//! # Ok::<(), tricheck::compiler::CompileError>(())
//! ```
//!
//! # Pipeline architecture: enumerate once, judge everywhere
//!
//! Every verification question in the stack factors through the same
//! three stages, and the crates are arranged so each stage's work is
//! computed at the widest scope it is valid for:
//!
//! ```text
//!   LitmusTest ──compile(mapping)──▶ Program<HwAnnot>
//!        │                                │
//!        │ one C11 verdict per test       │ one ExecutionSpace per
//!        ▼                                ▼ distinct compiled program
//!   C11Model::permits_target     ExecutionSpace (litmus::space)
//!        │                                │
//!        │            ConsistencyModel::permits(space, target)
//!        │                                │  ← C11Model and UarchModel
//!        ▼                                ▼    are both just predicates
//!      Step 1 verdict ──────────▶ Step 4 classification ◀── Step 3 verdict
//! ```
//!
//! - **Enumeration** ([`litmus::ExecutionSpace`]) depends only on the
//!   program: it is lazily materialized at most once per structural
//!   [`litmus::Fingerprint`] and shared by every model that judges the
//!   program. A short-circuiting witness mode serves one-shot queries.
//! - **Judgement** ([`litmus::ConsistencyModel`]) is a pure predicate
//!   over candidate executions; [`c11::C11Model`] and
//!   [`uarch::UarchModel`] both implement it, so `permits_target` and
//!   `observes` are thin adapters over the same engine.
//! - **Scheduling** ([`core::Sweep`]) fans (test × mapping group) work
//!   items over a work-stealing pool whose workers share the
//!   compiled-program and execution-space caches; `SweepResults::stats()` proves the
//!   exactly-once contract, and `SweepOptions { threads: 1 }` degrades
//!   to a fully deterministic serial run.
//!
//! A sweep is a list of [`core::MatrixStack`]s: [`core::MatrixSpec`]
//! names the built-in lists (Figure 15, the §7 compiler study, the x86
//! study) and [`core::load_stack_file`] reads more from stack files.
//! The pre-engine per-cell pipeline survives as
//! [`core::Sweep::run_matrix_naive`], used by the differential tests in
//! `tests/engine_equivalence.rs` and the `pipeline` benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tricheck_c11 as c11;
pub use tricheck_compiler as compiler;
pub use tricheck_core as core;
pub use tricheck_dist as dist;
pub use tricheck_isa as isa;
pub use tricheck_litmus as litmus;
pub use tricheck_opsim as opsim;
pub use tricheck_rel as rel;
pub use tricheck_sieve as sieve;
pub use tricheck_trace as trace;
pub use tricheck_uarch as uarch;

/// The most common imports for driving the toolflow.
pub mod prelude {
    pub use tricheck_c11::{C11Model, C11Verdict};
    pub use tricheck_compiler::{compile, power_mapping, riscv_mapping, Mapping, PowerSyncStyle};
    pub use tricheck_core::{
        report, Classification, MatrixStack, OutcomeMode, SpaceSharing, SpaceStore, StackKey,
        Sweep, SweepOptions, SweepResults, TestResult, TriCheck,
    };
    pub use tricheck_dist::{run_sharded, DiskStore, DistOptions, DistResults, MatrixSpec};
    pub use tricheck_isa::{format_program, AmoBits, Asm, HwAnnot, RiscvIsa, SpecVersion};
    pub use tricheck_litmus::{suite, LitmusTest, MemOrder, Outcome, Program};
    pub use tricheck_uarch::{UarchConfig, UarchModel};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_a_full_stack() {
        use crate::prelude::*;
        let refined = riscv_mapping(RiscvIsa::Base, SpecVersion::Ours);
        let stack = TriCheck::new(refined, UarchModel::nmm(SpecVersion::Ours));
        let r = stack.verify(&suite::fig3_wrc()).expect("compiles");
        assert_eq!(r.classification(), Classification::Equivalent);
    }
}
