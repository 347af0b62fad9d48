//! Model-evaluation bench: the compiled bitset kernels against the
//! tree-walking IR interpreter and the imperative oracles, and
//! axiom-pruned against unpruned enumeration, on the wrc/iriw families
//! (the shapes the paper's §5 bugs live in).
//!
//! Three questions this answers after every model-layer change:
//!
//! 1. What does a candidate verdict cost on the production path — the
//!    compiled kernel replaying a cached space-invariant prelude
//!    (`compiled-prelude`, the shape every sweep runs) — against the
//!    hand-written checkers and the interpreter it retired?
//! 2. How much of the old interpretation overhead does compilation
//!    recover (`interpreter` vs `compiled`)?
//! 3. What does axiom-driven pruning save (or cost) end to end, now
//!    that the partial-core checks ride an incremental topological
//!    order instead of recomputing acyclicity per branch?
//!
//! Set `TRICHECK_BENCH_QUICK=1` to run a fast smoke pass (CI): fewer
//! samples and the per-candidate variants only.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tricheck_compiler::{compile, riscv_mapping};
use tricheck_core::{MatrixSpec, Sweep, SweepOptions};
use tricheck_isa::{HwAnnot, RiscvIsa, SpecVersion};
use tricheck_litmus::{
    enumerate_executions, enumerate_executions_pruned, suite, Execution, LitmusTest,
};
use tricheck_rel::EvalScratch;
use tricheck_uarch::{HwBinding, UarchModel};

fn family(name: &str) -> Vec<LitmusTest> {
    suite::full_suite()
        .into_iter()
        .filter(|t| t.family() == name)
        .collect()
}

fn quick() -> bool {
    std::env::var_os("TRICHECK_BENCH_QUICK").is_some_and(|v| v == "1")
}

/// Every candidate execution of one representative compiled variant.
fn candidates(test: &LitmusTest) -> Vec<Execution<HwAnnot>> {
    let mapping = riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr);
    let compiled = compile(test, mapping).expect("compiles");
    let mut all = Vec::new();
    enumerate_executions(compiled.program(), &mut |e| {
        all.push(e.clone());
        true
    });
    all
}

fn bench_model_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_eval");
    if quick() {
        group.sample_size(2);
    }

    // --- compiled kernel vs interpreter vs imperative, per candidate ---
    for fam in ["wrc", "iriw"] {
        let test = &family(fam)[0];
        let execs = candidates(test);
        let models = [
            UarchModel::nmm(SpecVersion::Curr),
            UarchModel::a9like(SpecVersion::Ours),
        ];
        for model in &models {
            let _ = model.ir(); // build outside the timed region
            let kernel = model.compiled(); // compile outside the timed region
            group.bench_function(format!("{fam}/{}/imperative", model.name()), |b| {
                b.iter(|| {
                    execs
                        .iter()
                        .filter(|e| model.check(black_box(e)).is_ok())
                        .count()
                });
            });
            group.bench_function(format!("{fam}/{}/interpreter", model.name()), |b| {
                b.iter(|| {
                    execs
                        .iter()
                        .filter(|e| model.ir().consistent(&HwBinding::new(black_box(e))))
                        .count()
                });
            });
            // The production path: `model.consistent` routes through the
            // compiled kernel, rebuilding the prelude per candidate.
            group.bench_function(format!("{fam}/{}/compiled", model.name()), |b| {
                b.iter(|| {
                    execs
                        .iter()
                        .filter(|e| model.consistent(black_box(e)))
                        .count()
                });
            });
            // The sweep shape: the space-invariant prelude is computed
            // once per (space, kernel) and replayed for every candidate,
            // with evaluation buffers reused across candidates.
            let prelude = kernel.prelude(&HwBinding::new(&execs[0]));
            group.bench_function(format!("{fam}/{}/compiled-prelude", model.name()), |b| {
                let mut scratch = EvalScratch::default();
                b.iter(|| {
                    execs
                        .iter()
                        .filter(|e| {
                            kernel.consistent_with_scratch(
                                &prelude,
                                &HwBinding::new(black_box(e)),
                                &mut scratch,
                            )
                        })
                        .count()
                });
            });
        }
    }

    if quick() {
        group.finish();
        return;
    }

    // --- Pruned vs unpruned enumeration over the compiled families ---
    for fam in ["wrc", "iriw"] {
        let tests = family(fam);
        let mapping = riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr);
        let programs: Vec<_> = tests
            .iter()
            .map(|t| compile(t, mapping).expect("compiles").program().clone())
            .collect();
        group.bench_function(format!("{fam}/enumerate/unpruned"), |b| {
            b.iter(|| {
                let mut n = 0usize;
                for p in &programs {
                    enumerate_executions(black_box(p), &mut |_| {
                        n += 1;
                        true
                    });
                }
                n
            });
        });
        group.bench_function(format!("{fam}/enumerate/pruned"), |b| {
            b.iter(|| {
                let mut n = 0usize;
                for p in &programs {
                    let _ = enumerate_executions_pruned(black_box(p), &mut |_| {
                        n += 1;
                        true
                    });
                }
                n
            });
        });
        // End to end: the family through the Figure 15 engine sweep.
        group.bench_function(format!("{fam}/sweep/pruned"), |b| {
            b.iter(|| {
                Sweep::new()
                    .run_matrix(black_box(&tests), &MatrixSpec::Riscv.stacks())
                    .grand_total_bugs()
            });
        });
        group.bench_function(format!("{fam}/sweep/unpruned"), |b| {
            let opts = SweepOptions {
                pruning: false,
                ..SweepOptions::default()
            };
            b.iter(|| {
                Sweep::with_options(opts.clone())
                    .run_matrix(black_box(&tests), &MatrixSpec::Riscv.stacks())
                    .grand_total_bugs()
            });
        });
    }

    group.finish();

    // Context for the end-to-end numbers above: one traced wrc sweep's
    // per-phase breakdown shows where the sweep time actually goes.
    let (_, trace) = tricheck_bench::timed_report(|| {
        Sweep::new().run_matrix(&family("wrc"), &MatrixSpec::Riscv.stacks())
    });
    println!("\nwrc sweep phase breakdown:\n{}", trace.render_text());
}

criterion_group!(benches, bench_model_eval);
criterion_main!(benches);
