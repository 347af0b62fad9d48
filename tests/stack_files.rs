//! Integration tests for the runtime model/stack-file path.
//!
//! Two contracts are pinned here:
//!
//! 1. **Round-trip**: `parse_model(ir.to_string()) == ir` for the IR of
//!    every stack registered in the three built-in sweep matrices, and
//!    for randomly generated IRs — the parser accepts exactly the
//!    grammar `ModelIr`'s `Display` renders.
//! 2. **Bit-identity**: sweeping the committed `models/x86-tso.stack`
//!    file through `--stack`'s path ([`load_stack_file`] and
//!    [`report::stack_table`]) reproduces the x86 study's golden fixture
//!    byte-for-byte. The file *is* the built-in study
//!    (`MatrixSpec::X86` embeds it), and `models/x86-tso.cat` is the only other text of its
//!    model: the two must parse to the same IR.

use std::path::Path;

use proptest::prelude::*;
use tricheck::core::{load_model_file, load_stack_file, report, MatrixSpec, Sweep};
use tricheck::litmus::suite;
use tricheck::rel::ir::{AxiomKind, ModelIr, RelExpr, SetExpr};
use tricheck::rel::parse_model;
use tricheck::uarch::{hw_vocabulary, HW_REL_BASES, HW_SET_BASES};

/// The committed stack file, swept over the full suite, is
/// byte-identical to the built-in x86 study's fixture — table and CSV.
#[test]
fn file_loaded_x86_tso_stack_matches_committed_fixture() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let loaded = load_stack_file(&root.join("models/x86-tso.stack"))
        .expect("committed stack file loads cleanly");
    let results = Sweep::new().run_matrix(&suite::full_suite(), &loaded.stacks);
    let mut out = report::stack_table(&results, &loaded.title);
    out.push('\n');
    out.push_str(&report::to_csv(&results));
    let fixture = std::fs::read_to_string(root.join("tests/fixtures/x86_tso_rows.txt"))
        .expect("x86 fixture exists");
    assert_eq!(
        out, fixture,
        "the file-loaded x86-TSO stack drifted from the built-in study"
    );
}

/// The x86 model has two texts, the bare `.cat` file and the stack
/// file's `model` section; they define one model.
#[test]
fn x86_tso_cat_and_stack_model_section_are_one_model() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cat = load_model_file(&root.join("models/x86-tso.cat")).expect("x86-tso.cat loads");
    let loaded = load_stack_file(&root.join("models/x86-tso.stack")).expect("stack loads");
    let builtin = MatrixSpec::X86.stacks();
    for stack in loaded.stacks.iter().chain(&builtin) {
        assert_eq!(stack.model.ir(), &cat, "{}", stack.mapping.name());
    }
}

/// Every stack in the three registered matrices round-trips its model IR
/// through the parser.
#[test]
fn every_registered_stack_ir_roundtrips_through_the_parser() {
    let vocab = hw_vocabulary();
    let stacks: Vec<_> = [MatrixSpec::Riscv, MatrixSpec::Power, MatrixSpec::X86]
        .into_iter()
        .flat_map(MatrixSpec::stacks)
        .collect();
    assert_eq!(stacks.len(), 34, "the registered matrices hold 34 stacks");
    for stack in &stacks {
        let ir = stack.model.ir();
        let reparsed = parse_model(&ir.to_string(), &vocab)
            .unwrap_or_else(|e| panic!("{} does not reparse: {e}", ir.name()));
        assert_eq!(&reparsed, ir, "{} does not round-trip", ir.name());
    }
}

// A tiny deterministic generator (splitmix64) for building random IRs
// from a proptest-drawn seed; the shim's strategies cover scalars, so
// the tree shape is derived here.
fn next(rng: &mut u64) -> u64 {
    *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *rng;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick<'a>(rng: &mut u64, choices: &[&'a str]) -> &'a str {
    choices[(next(rng) % choices.len() as u64) as usize]
}

fn random_set(rng: &mut u64, depth: u32) -> SetExpr {
    match next(rng) % if depth == 0 { 3 } else { 6 } {
        0 => SetExpr::Universe,
        1 => SetExpr::Empty,
        2 => SetExpr::Base(pick(rng, HW_SET_BASES)),
        3 => random_set(rng, depth - 1).union(random_set(rng, depth - 1)),
        4 => random_set(rng, depth - 1).inter(random_set(rng, depth - 1)),
        _ => random_set(rng, depth - 1).minus(random_set(rng, depth - 1)),
    }
}

fn random_rel(rng: &mut u64, depth: u32, defs: &[&'static str]) -> RelExpr {
    let leaves = if defs.is_empty() { 4 } else { 5 };
    match next(rng) % if depth == 0 { leaves } else { leaves + 9 } {
        0 => RelExpr::Base(pick(rng, HW_REL_BASES)),
        1 => RelExpr::Id,
        2 => RelExpr::Empty,
        3 => RelExpr::cross(random_set(rng, 1), random_set(rng, 1)),
        4 if !defs.is_empty() => RelExpr::reference(defs[(next(rng) % defs.len() as u64) as usize]),
        4 | 5 => random_rel(rng, depth - 1, defs).union(random_rel(rng, depth - 1, defs)),
        6 => random_rel(rng, depth - 1, defs).inter(random_rel(rng, depth - 1, defs)),
        7 => random_rel(rng, depth - 1, defs).minus(random_rel(rng, depth - 1, defs)),
        8 => random_rel(rng, depth - 1, defs).seq(random_rel(rng, depth - 1, defs)),
        9 => random_rel(rng, depth - 1, defs).inverse(),
        10 => random_rel(rng, depth - 1, defs).plus(),
        11 => random_rel(rng, depth - 1, defs).star(),
        12 => random_rel(rng, depth - 1, defs).opt(),
        _ => random_rel(rng, depth - 1, defs).restrict(random_set(rng, 1), random_set(rng, 1)),
    }
}

fn random_ir(seed: u64) -> ModelIr {
    const DEF_NAMES: [&str; 4] = ["d0", "d1", "d2", "d3"];
    const AXIOM_NAMES: [&str; 3] = ["A0", "A1", "A2"];
    let rng = &mut seed.clone();
    let mut ir = ModelIr::new("random-model");
    let n_defs = (next(rng) % 4) as usize;
    for (i, name) in DEF_NAMES.iter().enumerate().take(n_defs) {
        let body = random_rel(rng, 3, &DEF_NAMES[..i]);
        ir = ir.define(name, body);
    }
    let n_axioms = 1 + (next(rng) % 3) as usize;
    for name in AXIOM_NAMES.iter().take(n_axioms) {
        let kind = match next(rng) % 3 {
            0 => AxiomKind::Acyclic,
            1 => AxiomKind::Irreflexive,
            _ => AxiomKind::Empty,
        };
        ir = ir.axiom(name, kind, random_rel(rng, 3, &DEF_NAMES[..n_defs]));
    }
    ir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `parse(display(ir)) == ir` for randomly generated IRs over the
    /// hardware vocabulary: every operator, closure, restriction, and
    /// reference shape the IR can express survives the text round-trip.
    #[test]
    fn random_irs_roundtrip_through_the_parser(seed in 0u64..u64::MAX) {
        let ir = random_ir(seed);
        let printed = ir.to_string();
        let reparsed = parse_model(&printed, &hw_vocabulary())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{printed}"));
        prop_assert_eq!(reparsed, ir);
    }
}
