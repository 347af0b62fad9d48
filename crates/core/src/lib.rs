//! TriCheck: full-stack memory consistency model verification.
//!
//! This crate is the paper's primary contribution — the toolflow of its
//! Figure 6, connecting the four MCM-dependent system components:
//!
//! 1. **HLL axiomatic evaluation**: the C11 model decides whether each
//!    litmus test's target outcome is permitted ([`tricheck_c11`]).
//! 2. **HLL → ISA compilation**: a compiler mapping lowers the test to
//!    hardware instructions ([`tricheck_compiler`]).
//! 3. **ISA µspec evaluation**: a microarchitecture model decides whether
//!    the outcome is observable ([`tricheck_uarch`]).
//! 4. **Equivalence check**: the verdicts are compared and classified as
//!    [`Classification::Bug`] (forbidden yet observable),
//!    [`Classification::OverlyStrict`] (permitted yet unobservable) or
//!    [`Classification::Equivalent`].
//!
//! [`TriCheck`] runs the flow for one stack configuration;
//! [`runner::Sweep`] fans a litmus suite across a matrix of full-stack
//! cells and aggregates Figure-15-style counts; [`report`] renders them.
//!
//! Sweeps run on the shared execution-space engine (see [`runner`] for
//! the architecture): C11 verdicts are computed once per test,
//! compilation once per (test, mapping), and candidate-execution
//! enumeration once per distinct compiled program, with a work-stealing
//! scheduler fanning (test × mapping group) items over the shared caches.
//! [`SweepResults::stats`] exposes the counters that prove it.
//! A sweep is a list of [`MatrixStack`]s keyed by [`StackKey`], run by
//! [`Sweep::run_matrix`](runner::Sweep::run_matrix); [`MatrixSpec`]
//! names the built-in lists (Figure 15, the §7 compiler study, the x86
//! study) and [`registry`] loads more from files.
//! [`OutcomeMode::FullOutcomes`] upgrades any sweep to the stronger
//! full-outcome-set equivalence at witness-mode cost.
//!
//! # Examples
//!
//! Verify the paper's Figure 3 WRC test against the shared-store-buffer
//! microarchitecture under the 2016 RISC-V Base ISA — and find the bug
//! that motivates cumulative lightweight fences (§5.1.1):
//!
//! ```
//! use tricheck_core::{Classification, TriCheck};
//! use tricheck_isa::{RiscvIsa, SpecVersion};
//! use tricheck_litmus::suite;
//! use tricheck_uarch::UarchModel;
//! use tricheck_compiler::riscv_mapping;
//!
//! let intuitive = riscv_mapping(RiscvIsa::Base, SpecVersion::Curr);
//! let stack = TriCheck::new(intuitive, UarchModel::nwr(SpecVersion::Curr));
//! let result = stack.verify(&suite::fig3_wrc())?;
//! assert_eq!(result.classification(), Classification::Bug);
//!
//! // The refined ISA (cumulative fences + fixed mapping) eliminates it.
//! let refined = riscv_mapping(RiscvIsa::Base, SpecVersion::Ours);
//! let fixed = TriCheck::new(refined, UarchModel::nwr(SpecVersion::Ours));
//! assert_eq!(fixed.verify(&suite::fig3_wrc())?.classification(),
//!            Classification::Equivalent);
//! # Ok::<(), tricheck_compiler::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explain;
pub mod registry;
pub mod report;
pub mod runner;
pub mod store;
pub mod verdict;

pub use explain::{diagnose, Diagnosis};
pub use registry::{
    lint_path, load_model_file, load_model_file_linted, load_stack_file, parse_stack_file,
    stacks_for_model, LoadedStack, StackFileError,
};
pub use runner::{
    results_from_items, MatrixItems, MatrixSpec, MatrixStack, OutcomeMode, SpaceSharing, StackKey,
    Sweep, SweepOptions, SweepResults, SweepRow, SweepStats, SHARING_BREAK_EVEN,
};
pub use store::{C11Cached, SpaceStore, StoreStats};
pub use verdict::{Classification, FullComparison, TestResult};

use std::collections::BTreeSet;

use tricheck_c11::C11Model;
use tricheck_compiler::{compile, CompileError, Mapping};
use tricheck_litmus::{ExecutionSpace, LitmusTest, Outcome};
use tricheck_uarch::UarchModel;

/// One full-stack configuration: a C11 front end, a compiler mapping, and
/// a microarchitectural implementation of the target ISA.
///
/// The ISA itself is present implicitly, through the constraints it places
/// on the mapping and the microarchitecture (paper §3.2).
pub struct TriCheck<'m> {
    hll: C11Model,
    mapping: &'m dyn Mapping,
    uarch: UarchModel,
}

impl<'m> TriCheck<'m> {
    /// Assembles a stack from a compiler mapping and a µarch model.
    #[must_use]
    pub fn new(mapping: &'m dyn Mapping, uarch: UarchModel) -> Self {
        TriCheck {
            hll: C11Model::new(),
            mapping,
            uarch,
        }
    }

    /// The compiler mapping under evaluation.
    #[must_use]
    pub fn mapping(&self) -> &dyn Mapping {
        self.mapping
    }

    /// The microarchitecture model under evaluation.
    #[must_use]
    pub fn uarch(&self) -> &UarchModel {
        &self.uarch
    }

    /// Runs Steps 1–4 of the toolflow for one litmus test, judging its
    /// designated target outcome.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the mapping cannot express the test.
    pub fn verify(&self, test: &LitmusTest) -> Result<TestResult, CompileError> {
        let permitted = self.hll.permits_target(test);
        let compiled = compile(test, self.mapping)?;
        let observable = self.uarch.observes(compiled.program(), compiled.target());
        Ok(TestResult::new(test, permitted, observable))
    }

    /// Runs the toolflow in full-outcome-set mode: compares *every*
    /// outcome the C11 model permits with every outcome the
    /// microarchitecture exhibits, not just the designated target.
    ///
    /// This is the stronger (and slower) equivalence check used when
    /// validating refinements ("no forbidden outcomes are allowed as a
    /// result of this relaxation", §5.2.2).
    ///
    /// Both outcome sets are computed through the shared
    /// [`ExecutionSpace::outcome_set`] engine — the same path a
    /// full-outcome sweep ([`OutcomeMode::FullOutcomes`]) amortizes
    /// across model cells, pinned to the one-shot streaming enumeration
    /// by the differential tests in `tests/power_equivalence.rs`.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the mapping cannot express the test.
    pub fn verify_full(&self, test: &LitmusTest) -> Result<FullComparison, CompileError> {
        let hll_space = ExecutionSpace::new(test.program().clone());
        let permitted = self.hll.permitted_outcomes_in(&hll_space, test.observed());
        let compiled = compile(test, self.mapping)?;
        let hw_space = ExecutionSpace::new(compiled.program().clone());
        let observable: BTreeSet<Outcome> = self
            .uarch
            .observable_outcomes_in(&hw_space, compiled.observed());
        Ok(FullComparison::new(test.name(), permitted, observable))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricheck_compiler::riscv_mapping;
    use tricheck_isa::RiscvIsa::{Base, BaseA};
    use tricheck_isa::SpecVersion::{Curr, Ours};
    use tricheck_litmus::{suite, MemOrder};

    #[test]
    fn wrc_bug_found_and_fixed() {
        let t = suite::fig3_wrc();
        let buggy = TriCheck::new(riscv_mapping(Base, Curr), UarchModel::nmm(Curr));
        assert_eq!(
            buggy.verify(&t).unwrap().classification(),
            Classification::Bug
        );
        let fixed = TriCheck::new(riscv_mapping(Base, Ours), UarchModel::nmm(Ours));
        assert_eq!(
            fixed.verify(&t).unwrap().classification(),
            Classification::Equivalent
        );
    }

    #[test]
    fn overly_strict_detected_for_roach_motel() {
        let t = suite::fig11_mp_roach_motel();
        let strict = TriCheck::new(riscv_mapping(BaseA, Curr), UarchModel::rmm(Curr));
        assert_eq!(
            strict.verify(&t).unwrap().classification(),
            Classification::OverlyStrict
        );
        let relaxed = TriCheck::new(riscv_mapping(BaseA, Ours), UarchModel::rmm(Ours));
        assert_eq!(
            relaxed.verify(&t).unwrap().classification(),
            Classification::Equivalent
        );
    }

    #[test]
    fn full_comparison_classifies_like_target_mode_on_mp() {
        // For MP variants the target outcome is the only disputed one, so
        // both modes agree on the classification.
        for orders in [
            [MemOrder::Rlx; 4],
            [MemOrder::Rlx, MemOrder::Rel, MemOrder::Acq, MemOrder::Rlx],
        ] {
            let t = suite::mp(orders);
            let stack = TriCheck::new(riscv_mapping(Base, Curr), UarchModel::nmm(Curr));
            let target_mode = stack.verify(&t).unwrap().classification();
            let full_mode = stack.verify_full(&t).unwrap().classification();
            assert_eq!(target_mode, full_mode, "{}", t.name());
        }
    }

    #[test]
    fn full_comparison_exposes_outcome_sets() {
        let t = suite::mp([MemOrder::Rlx; 4]);
        let stack = TriCheck::new(riscv_mapping(Base, Curr), UarchModel::wr(Curr));
        let cmp = stack.verify_full(&t).unwrap();
        // WR is stronger than C11 for relaxed MP: fewer observable
        // outcomes than permitted ones.
        assert!(cmp.observable().is_subset(cmp.permitted()));
        assert!(cmp.observable().len() < cmp.permitted().len());
        assert_eq!(cmp.classification(), Classification::OverlyStrict);
    }

    #[test]
    fn refined_stack_is_equivalent_or_strict_on_named_tests() {
        // After refinement no named paper test may classify as Bug on any
        // model.
        for model in UarchModel::all_riscv(Ours) {
            for t in [
                suite::fig3_wrc(),
                suite::fig4_iriw_sc(),
                suite::fig11_mp_roach_motel(),
                suite::fig13_mp_lazy(),
                suite::corr([MemOrder::Rlx; 4]),
            ] {
                let stack = TriCheck::new(riscv_mapping(BaseA, Ours), model.clone());
                let c = stack.verify(&t).unwrap().classification();
                assert_ne!(c, Classification::Bug, "{} on {}", t.name(), model.name());
            }
        }
    }
}
