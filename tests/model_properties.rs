//! Property-based integration tests over randomly drawn litmus variants:
//! structural soundness relations that must hold between the models,
//! regardless of memory orders.

use proptest::prelude::*;
use tricheck::prelude::*;

/// Strategy: a random template index and a random order assignment.
fn arb_variant() -> impl Strategy<Value = LitmusTest> {
    (0usize..7, proptest::collection::vec(0usize..3, 6)).prop_map(|(t, picks)| {
        let templates = suite::all_templates();
        let template = &templates[t];
        let orders: Vec<MemOrder> = template
            .slots()
            .iter()
            .zip(&picks)
            .map(|(kind, &p)| kind.orders()[p])
            .collect();
        template.instantiate(&orders)
    })
}

/// Strengthen one slot of a variant (rlx -> acq/rel -> sc), if possible.
fn strengthen(test: &LitmusTest) -> Option<LitmusTest> {
    let templates = suite::all_templates();
    let template = templates.iter().find(|t| t.name() == test.family())?;
    // Recover the orders from the name suffix.
    let orders: Vec<MemOrder> = test
        .name()
        .split('+')
        .skip(1)
        .map(|s| match s {
            "rlx" => MemOrder::Rlx,
            "acq" => MemOrder::Acq,
            "rel" => MemOrder::Rel,
            "sc" => MemOrder::Sc,
            other => panic!("unexpected order {other}"),
        })
        .collect();
    for i in 0..orders.len() {
        let stronger = match orders[i] {
            MemOrder::Rlx => match template.slots()[i] {
                tricheck::litmus::SlotKind::Load => MemOrder::Acq,
                tricheck::litmus::SlotKind::Store => MemOrder::Rel,
            },
            MemOrder::Acq | MemOrder::Rel => MemOrder::Sc,
            _ => continue,
        };
        let mut new_orders = orders.clone();
        new_orders[i] = stronger;
        return Some(template.instantiate(&new_orders));
    }
    None
}

/// The full Figure 15 and §7 sweeps are bit-identical with axiom-driven
/// pruning on and off — and pruning actually fires — across all 1,701
/// tests, in both outcome modes. The production cell verdicts come from
/// the compiled bitset kernels, so this differential run also pins the
/// compiled path against the same rows the tree-walking era produced.
/// (The committed golden fixtures, generated before the IR, pruning and
/// the compiler landed, pin the same rows a third way.)
#[test]
fn full_suite_sweeps_are_identical_with_and_without_pruning() {
    let tests = suite::full_suite();
    let pruned = Sweep::new();
    let unpruned = Sweep::with_options(SweepOptions {
        pruning: false,
        ..SweepOptions::default()
    });
    let (a, b) = (
        pruned.run_matrix(&tests, &MatrixSpec::Riscv.stacks()),
        unpruned.run_matrix(&tests, &MatrixSpec::Riscv.stacks()),
    );
    assert_eq!(a.rows(), b.rows(), "Figure 15 rows must not move");
    assert_eq!(a.stats().distinct_programs, b.stats().distinct_programs);
    assert_eq!(a.stats().space_enumerations, b.stats().space_enumerations);
    assert_eq!(a.stats().c11_evaluations, b.stats().c11_evaluations);
    assert!(
        a.stats().candidates_pruned > 0,
        "pruning must fire on the full suite"
    );
    assert_eq!(b.stats().candidates_pruned, 0);
    assert!(
        a.stats().compiled_kernels > 0,
        "the compiled path must be active"
    );

    let (a, b) = (
        pruned.run_matrix(&tests, &MatrixSpec::Power.stacks()),
        unpruned.run_matrix(&tests, &MatrixSpec::Power.stacks()),
    );
    assert_eq!(a.rows(), b.rows(), "§7 rows must not move");

    // Full-outcome mode exercises the other verdict surface
    // (`allowed_outcomes` instead of `permits`) over the same spaces.
    let pruned_full = Sweep::with_options(SweepOptions {
        outcome_mode: OutcomeMode::FullOutcomes,
        ..SweepOptions::default()
    });
    let unpruned_full = Sweep::with_options(SweepOptions {
        outcome_mode: OutcomeMode::FullOutcomes,
        pruning: false,
        ..SweepOptions::default()
    });
    let (a, b) = (
        pruned_full.run_matrix(&tests, &MatrixSpec::Riscv.stacks()),
        unpruned_full.run_matrix(&tests, &MatrixSpec::Riscv.stacks()),
    );
    assert_eq!(a.rows(), b.rows(), "full-outcome rows must not move");
    assert_eq!(b.stats().candidates_pruned, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The compiled C11 kernel, the tree-walking IR interpreter, and the
    /// imperative oracle agree on every candidate execution of random
    /// suite variants. `model.consistent` is the production (compiled)
    /// path; the other two are the independent oracles it must match.
    #[test]
    fn ir_c11_agrees_with_the_imperative_oracle(test in arb_variant()) {
        let model = C11Model::new();
        let mut checked = 0;
        tricheck::litmus::enumerate_executions(test.program(), &mut |exec| {
            let kernel = model.consistent(exec); // compiled bitset kernel
            let binding = tricheck::c11::C11Binding::new(exec);
            assert_eq!(
                kernel,
                C11Model::ir().consistent(&binding), // tree-walking interpreter
                "compiled C11 kernel disagrees with the interpreter on {} (candidate {checked})",
                test.name()
            );
            assert_eq!(
                kernel,
                model.check(exec).is_ok(),           // imperative oracle
                "compiled C11 kernel disagrees with the oracle on {} (candidate {checked})",
                test.name()
            );
            checked += 1;
            checked < 200
        });
        prop_assert!(checked > 0);
    }

    /// Every registered µarch stack's compiled kernel agrees with the
    /// tree-walking IR interpreter and the imperative oracle on every
    /// candidate execution of random compiled variants (both spec
    /// versions, both RISC-V ISAs, the ARMv7 study machines, and the
    /// x86-TSO stacks). For data-defined (IR-only) models `check` is the
    /// interpreter itself, so the comparison degenerates to compiled ==
    /// interpreted — still the pin that matters.
    ///
    /// The same pin covers fusion: each mapping's models are also
    /// lowered into one multi-output kernel, and bit `k` of its verdict
    /// mask must equal model `k`'s single-model verdict on every
    /// candidate (also when only some models are wanted), and the fused
    /// judge — over a shared space and over a stream alike — must
    /// reproduce every model's one-shot verdict in both outcome modes.
    #[test]
    fn ir_uarch_models_agree_with_the_imperative_oracles(test in arb_variant()) {
        use tricheck::litmus::ExecutionSpace;
        use tricheck::rel::EvalScratch;
        use tricheck::uarch::{FusedJudge, HwBinding, JudgeWork};

        let mut groups: Vec<(&dyn Mapping, Vec<UarchModel>)> = Vec::new();
        for version in [SpecVersion::Curr, SpecVersion::Ours] {
            for isa in [RiscvIsa::Base, RiscvIsa::BaseA] {
                groups.push((riscv_mapping(isa, version), UarchModel::all_riscv(version)));
            }
        }
        groups.push((power_mapping(PowerSyncStyle::Leading), UarchModel::all_armv7()));
        for stack in MatrixSpec::X86.stacks() {
            groups.push((stack.mapping, vec![stack.model]));
        }
        for (mapping, models) in &groups {
            let compiled = compile(&test, *mapping).unwrap();
            let refs: Vec<&UarchModel> = models.iter().collect();
            let fused = FusedJudge::new(&refs);
            let kernel = fused.kernel();
            let mut scratch = EvalScratch::default();
            let mut checked = 0;
            tricheck::litmus::enumerate_executions(compiled.program(), &mut |exec| {
                let binding = HwBinding::new(exec);
                let prelude = kernel.prelude(&binding);
                let mask = kernel.verdicts_with_scratch(&prelude, &binding, kernel.all_models(), &mut scratch);
                // Every other model wanted, rotating: skipped models must
                // not perturb the wanted ones' bits.
                let some = 0x5555_5555_5555_5555u64 << (checked % 2);
                assert_eq!(
                    kernel.verdicts_with_scratch(&prelude, &binding, some, &mut scratch),
                    mask & some,
                    "partial wanted mask on {} (candidate {checked})",
                    test.name()
                );
                for (k, model) in models.iter().enumerate() {
                    let single = model.consistent(exec); // compiled bitset kernel
                    assert_eq!(
                        mask >> k & 1 == 1,
                        single,
                        "{} fused bit {k} disagrees with its own kernel on {} (candidate {checked})",
                        model.name(),
                        test.name()
                    );
                    assert_eq!(
                        single,
                        model.ir().consistent(&binding), // tree-walking interpreter
                        "{} compiled kernel disagrees with the interpreter on {} (candidate {checked})",
                        model.name(),
                        test.name()
                    );
                    assert_eq!(
                        single,
                        model.check(exec).is_ok(),       // imperative oracle
                        "{} compiled kernel disagrees with the oracle on {} (candidate {checked})",
                        model.name(),
                        test.name()
                    );
                }
                checked += 1;
                checked < 60
            });
            prop_assert!(checked > 0);

            let space = ExecutionSpace::pruned(compiled.program().clone());
            let mut work = JudgeWork::default();
            let observes = fused.observes_in(&space, compiled.target(), &mut work);
            let outcomes = fused.observable_outcomes_in(&space, compiled.observed(), &mut work);
            // The streamed judgements read the same verdicts off one
            // unpruned enumeration each, with one prelude per stream.
            let mut streamed = JudgeWork::default();
            prop_assert!(
                fused.observes(compiled.program(), compiled.target(), &mut streamed) == observes,
                "streamed fused target mask on {}",
                test.name()
            );
            prop_assert!(
                fused.observable_outcomes(compiled.program(), compiled.observed(), &mut streamed)
                    == outcomes,
                "streamed fused outcome sets on {}",
                test.name()
            );
            prop_assert!(streamed.streams <= 2 && streamed.streams <= streamed.judged);
            for (k, model) in models.iter().enumerate() {
                prop_assert!(
                    (observes >> k & 1 == 1) == model.observes(compiled.program(), compiled.target()),
                    "{} fused target verdict on {}",
                    model.name(),
                    test.name()
                );
                prop_assert!(
                    outcomes[k] == model.observable_outcomes(compiled.program(), compiled.observed()),
                    "{} fused outcome set on {}",
                    model.name(),
                    test.name()
                );
            }
        }
    }

    /// Pruned and unpruned enumeration produce the same
    /// [`ExecutionSpace`] up to the model-independent core: the pruned
    /// space holds exactly the core-consistent candidates, and every
    /// model's verdict over either space is identical.
    #[test]
    fn pruned_spaces_are_model_equivalent_to_unpruned(test in arb_variant()) {
        use tricheck::litmus::{core_consistent, ConsistencyModel, ExecutionSpace};
        let compiled = compile(&test, riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr)).unwrap();
        let full = ExecutionSpace::new(compiled.program().clone());
        let pruned = ExecutionSpace::pruned(compiled.program().clone());
        let filtered: Vec<_> = full
            .executions()
            .to_vec()
            .into_iter()
            .filter(core_consistent)
            .collect();
        prop_assert_eq!(pruned.executions().to_vec(), filtered);
        for model in UarchModel::all_riscv(SpecVersion::Curr) {
            prop_assert!(
                model.permits(&full, compiled.target())
                    == model.permits(&pruned, compiled.target()),
                "{} changes verdict under pruning on {}",
                model.name(),
                test.name()
            );
            prop_assert_eq!(
                model.allowed_outcomes(&full, compiled.observed()),
                model.allowed_outcomes(&pruned, compiled.observed())
            );
        }
    }

    /// Strengthening a memory order never enlarges the C11-permitted
    /// outcome set (C11 is monotone in ordering strength).
    #[test]
    fn c11_is_monotone_in_order_strength(test in arb_variant()) {
        if let Some(stronger) = strengthen(&test) {
            let model = C11Model::new();
            let weak = model.permitted_outcomes(&test);
            let strong = model.permitted_outcomes(&stronger);
            prop_assert!(
                strong.is_subset(&weak),
                "{} permits outcomes {} does not",
                stronger.name(),
                test.name()
            );
        }
    }

    /// Relaxing the microarchitecture never removes observable outcomes:
    /// each Table 7 model chain is ordered by observational strength.
    #[test]
    fn uarch_models_form_a_strength_chain(test in arb_variant()) {
        type ModelCtor = fn(SpecVersion) -> UarchModel;
        let mapping = riscv_mapping(RiscvIsa::Base, SpecVersion::Curr);
        let compiled = compile(&test, mapping).unwrap();
        let chains: [&[ModelCtor]; 2] = [
            &[UarchModel::wr, UarchModel::rwr, UarchModel::rwm, UarchModel::rmm],
            &[UarchModel::nwr, UarchModel::nmm],
        ];
        for chain in chains {
            for pair in chain.windows(2) {
                let stronger = pair[0](SpecVersion::Curr);
                let weaker = pair[1](SpecVersion::Curr);
                let a = stronger.observable_outcomes(compiled.program(), compiled.observed());
                let b = weaker.observable_outcomes(compiled.program(), compiled.observed());
                prop_assert!(
                    a.is_subset(&b),
                    "{} observes outcomes {} does not on {}",
                    stronger.name(),
                    weaker.name(),
                    test.name()
                );
            }
        }
    }

    /// The refined (riscv-ours) stack is *sound* in the strong sense: on
    /// every model, every observable outcome is C11-permitted — not just
    /// for the designated target outcome.
    #[test]
    fn refined_stack_is_outcome_set_sound(test in arb_variant()) {
        let c11 = C11Model::new();
        let permitted = c11.permitted_outcomes(&test);
        for isa in [RiscvIsa::Base, RiscvIsa::BaseA] {
            let mapping = riscv_mapping(isa, SpecVersion::Ours);
            let compiled = compile(&test, mapping).unwrap();
            for model in [
                UarchModel::rmm(SpecVersion::Ours),
                UarchModel::nmm(SpecVersion::Ours),
                UarchModel::a9like(SpecVersion::Ours),
            ] {
                let observable =
                    model.observable_outcomes(compiled.program(), compiled.observed());
                prop_assert!(
                    observable.is_subset(&permitted),
                    "{} on {} ({isa}) shows non-C11 outcomes",
                    test.name(),
                    model.name()
                );
            }
        }
    }

    /// The strongest model (WR) under the strongest mapping never shows a
    /// C11-forbidden outcome, current ISA or not.
    #[test]
    fn wr_model_is_always_sound(test in arb_variant()) {
        let c11 = C11Model::new();
        let permitted = c11.permitted_outcomes(&test);
        for isa in [RiscvIsa::Base, RiscvIsa::BaseA] {
            let compiled = compile(&test, riscv_mapping(isa, SpecVersion::Curr)).unwrap();
            let model = UarchModel::wr(SpecVersion::Curr);
            let observable =
                model.observable_outcomes(compiled.program(), compiled.observed());
            prop_assert!(observable.is_subset(&permitted));
        }
    }

    /// Every candidate execution enumerated for a compiled test yields a
    /// well-formed outcome over exactly the observed registers.
    #[test]
    fn compiled_outcomes_are_well_formed(test in arb_variant()) {
        let compiled = compile(&test, riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr)).unwrap();
        let mut checked = 0;
        tricheck::litmus::enumerate_executions(compiled.program(), &mut |exec| {
            let outcome = exec.outcome(compiled.observed());
            assert_eq!(outcome.len(), compiled.observed().len());
            checked += 1;
            checked < 50 // bound the work per case
        });
        prop_assert!(checked > 0);
    }
}
