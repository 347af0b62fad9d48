//! Axiomatic microarchitecture memory models — TriCheck's Step 3
//! (ISA µSPEC EVALUATION).
//!
//! The paper models seven RISC-V-compliant microarchitectures (its
//! Table/Figure 7), derived from the Rocket Chip and progressively
//! relaxing program order and store atomicity. This crate reproduces them
//! as axiomatic models in the style of Alglave et al.'s *Herding Cats*
//! framework, at ISA-visible granularity: the observability verdict for a
//! compiled litmus test is what TriCheck's Step 4 consumes, and for these
//! relaxations the axiomatic formulation and the paper's µhb-graph models
//! accept the same outcomes (validated against every qualitative claim in
//! the paper's §5; see DESIGN.md §2.4).
//!
//! # Models
//!
//! | model | relaxes | store atomicity |
//! |-------|---------|-----------------|
//! | `WR`  | W→R | multi-copy atomic (no store-buffer forwarding) |
//! | `rWR` | W→R | read-own-write-early (forwarding) |
//! | `rWM` | W→R, W→W | rMCA |
//! | `rMM` | W→R, W→W, R→M | rMCA |
//! | `nWR` | W→R | non-MCA (shared store buffers) |
//! | `nMM` | W→R, W→W, R→M | non-MCA |
//! | `A9like` | W→R, W→W, R→M | non-MCA via non-stalling coherence |
//!
//! `A9like` differs from `nMM` in one ISA-visible way (§6.1): its AMOs
//! complete through the coherence protocol, so writes of SC-annotated
//! AMOs are globally visible to *any* reader, while the shared-store-
//! buffer models only serialize SC AMOs against each other.
//!
//! Each model comes in a `riscv-curr` and a `riscv-ours` flavour
//! ([`tricheck_isa::SpecVersion`]), differing in the §5 refinements:
//! same-address load→load ordering, cumulative fences/releases, lazy
//! (acquire-only) release synchronization, and the `.sc` bit.
//!
//! # Axioms
//!
//! For every candidate execution of a compiled program:
//!
//! 1. **SC-per-location**: `acyclic(po_loc′ ∪ rf ∪ co ∪ fr)`, where
//!    `po_loc′` keeps locally-ordered same-address pairs and omits
//!    same-address R→R pairs only when the pipeline reorders reads and
//!    the ISA permits it (§5.1.3).
//! 2. **Atomicity**: `rmw ∩ (fr ; co) = ∅`.
//! 3. **Causality**: `acyclic(hb)`,
//!    `hb = ppo ∪ fences ∪ rfe (∪ rfi on MCA)`.
//! 4. **Observation**: `irreflexive(fre ; prop)` — `prop` carries its own
//!    soundness-scoped extensions (global drains compose freely,
//!    per-observer orderings relay through one reads-from hop only).
//! 5. **Propagation**: `acyclic(co ∪ prop)`.
//! 6. **SC-AMO order** (Base+A): `acyclic([sc] ; (hb⁺ ∪ po ∪ com) ; [sc])`.
//!
//! `prop` is where store atomicity lives: (r)MCA models use the strong
//! `ppo ∪ fences ∪ rf(e) ∪ fr`; non-MCA models build `prop` from fence
//! cumulativity, Power-style (see [`model`] for the construction).
//!
//! # Models as data
//!
//! Every model is a declarative [`tricheck_rel::ModelIr`]: knob-driven
//! configurations are compiled to IR by [`build_uarch_ir`] (the
//! imperative checker survives as `UarchModel::check`, the differential
//! oracle), and new machines can be written directly in the IR with no
//! config at all and loaded with [`UarchModel::from_ir`] —
//! `models/x86-tso.cat` in the repository root is the worked example,
//! and the same model text drives the built-in x86 study through
//! `models/x86-tso.stack`. The [`HwBinding`] supplies the
//! model-free base relations (program order, communication, fence edge
//! sets, AMO ordering-bit sets) every model draws from.
//!
//! # Examples
//!
//! ```
//! use tricheck_compiler::{compile, riscv_mapping};
//! use tricheck_isa::{RiscvIsa, SpecVersion};
//! use tricheck_litmus::suite;
//! use tricheck_uarch::UarchModel;
//!
//! // The Figure 3 WRC outcome is observable on the shared-store-buffer
//! // model under the 2016 ISA (no cumulative fences exist to prevent it).
//! let intuitive = riscv_mapping(RiscvIsa::Base, SpecVersion::Curr);
//! let compiled = compile(&suite::fig3_wrc(), intuitive)?;
//! let nwr = UarchModel::nwr(SpecVersion::Curr);
//! assert!(nwr.observes(compiled.program(), compiled.target()));
//! # Ok::<(), tricheck_compiler::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod ir;
pub mod model;

pub use config::{ReleasePredecessors, StoreAtomicity, UarchConfig};
pub use ir::{
    build_uarch_ir, hw_lint_schema, hw_vocabulary, HwBinding, HW_REL_BASES, HW_SET_BASES, SORT_F,
    SORT_R, SORT_W,
};
pub use model::{FusedJudge, JudgeWork, UarchModel, UarchViolation};
