//! Golden-row regression tests: the full Figure 15 sweep table, the §7
//! compiler-study counts, the x86 study and every built-in mapping's
//! instruction table are committed as fixtures, so any refactor that
//! changes a single classification or emitted instruction fails tier-1
//! loudly (rather than silently shifting paper numbers).
//!
//! To regenerate after an *intentional* model change, run
//! `TRICHECK_UPDATE_FIXTURES=1 cargo test --test golden_rows` and commit
//! the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use tricheck::compiler::{order_word, CompileError};
use tricheck::litmus::codec::fnv1a;
use tricheck::litmus::{Expr, Instr, Reg, RmwKind};
use tricheck::prelude::*;

/// A built-in study's mapping-study table, under the study's title.
fn study_table(results: &SweepResults, spec: MatrixSpec) -> String {
    report::stack_table(results, spec.title().expect("a mapping study"))
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn assert_matches_fixture(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("TRICHECK_UPDATE_FIXTURES").is_some() {
        std::fs::write(&path, actual).expect("write fixture");
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}) — regenerate with TRICHECK_UPDATE_FIXTURES=1",
            path.display()
        )
    });
    if expected != actual {
        let first_diff = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or_else(
                || "line counts differ".to_string(),
                |i| {
                    format!(
                        "first differing line {}:\n  fixture: {}\n  actual:  {}",
                        i + 1,
                        expected.lines().nth(i).unwrap_or(""),
                        actual.lines().nth(i).unwrap_or("")
                    )
                },
            );
        panic!(
            "drift against {name} — {first_diff}\n\
             If the change is intentional, regenerate fixtures with \
             TRICHECK_UPDATE_FIXTURES=1 and commit the diff."
        );
    }
}

/// Every cell of the full Figure 15 sweep (1,701 tests × 28 model cells,
/// per-family counts) matches the committed table.
#[test]
fn figure15_rows_match_committed_fixture() {
    let results = Sweep::new().run_matrix(&suite::full_suite(), &MatrixSpec::Riscv.stacks());
    assert_matches_fixture("figure15_rows.csv", &report::to_csv(&results));
}

/// The §7 compiler-study counts ({leading,trailing}-sync × ARMv7 models
/// over the full suite) match the committed table, in both row and
/// aggregate form.
#[test]
fn sec7_counterexample_counts_match_committed_fixture() {
    let results = Sweep::new().run_matrix(&suite::full_suite(), &MatrixSpec::Power.stacks());
    let mut out = study_table(&results, MatrixSpec::Power);
    out.push('\n');
    out.push_str(&report::to_csv(&results));
    assert_matches_fixture("sec7_power_rows.txt", &out);
}

/// The x86 mapping study ({sc-atomics, relaxed} × the IR-defined TSO
/// model over the full suite) matches the committed table. The headline
/// facts this pins: TSO exhibits the store-buffering (sb) and
/// read-to-write-causality (rwc) reorderings under the unfenced relaxed
/// mapping — and zero bugs under the standard SC-atomics mapping.
#[test]
fn x86_tso_rows_match_committed_fixture() {
    let results = Sweep::new().run_matrix(&suite::full_suite(), &MatrixSpec::X86.stacks());
    let mut out = study_table(&results, MatrixSpec::X86);
    out.push('\n');
    out.push_str(&report::to_csv(&results));
    assert_matches_fixture("x86_tso_rows.txt", &out);

    // The headline claims, asserted directly so a fixture regeneration
    // cannot silently launder them away.
    use tricheck::core::StackKey;
    let sc = StackKey {
        isa: "x86",
        variant: "sc-atomics",
    };
    let relaxed = StackKey {
        isa: "x86",
        variant: "relaxed",
    };
    assert_eq!(
        results.bugs_for(sc, "x86-TSO"),
        0,
        "the SC-atomics mapping is sound on TSO"
    );
    assert!(
        results
            .row(relaxed, "x86-TSO", "sb")
            .is_some_and(|r| r.bugs == 1),
        "TSO permits SC store buffering under the unfenced mapping"
    );
    assert!(results.bugs_for(relaxed, "x86-TSO") > 0);
}

/// One mapping's fixture block: what each (operation, order) entry
/// emits or which construct it rejects, then how many suite tests it
/// compiles and an FNV-1a digest of their names and programs.
fn describe_mapping(mapping: &dyn Mapping, tests: &[LitmusTest]) -> String {
    use MemOrder::{Acq, AcqRel, Rel, Rlx, Sc};
    fn entry(result: Result<Vec<Instr<HwAnnot>>, CompileError>) -> String {
        match result {
            Ok(instrs) => format!("{instrs:?}"),
            Err(CompileError::Unsupported { construct, .. }) => format!("unsupported: {construct}"),
            Err(e) => format!("error: {e}"),
        }
    }
    let mut out = format!("mapping {}\n", mapping.name());
    for mo in [Rlx, Acq, Rel, AcqRel, Sc] {
        let word = order_word(mo);
        let ld = mapping.load(Reg(0), Expr::Const(0), mo);
        let _ = writeln!(out, "  ld {word} = {}", entry(ld));
        let st = mapping.store(Expr::Const(0), Expr::Const(1), mo, Reg(128));
        let _ = writeln!(out, "  st {word} = {}", entry(st));
        for (kind_word, kind) in [
            ("fetch-add-zero", RmwKind::FetchAddZero),
            ("swap", RmwKind::Swap(Expr::Const(1))),
        ] {
            let rmw = mapping.rmw(Reg(0), Expr::Const(0), kind, mo);
            let _ = writeln!(out, "  rmw[{kind_word}] {word} = {}", entry(rmw));
        }
    }
    let (mut compiled, mut text) = (0, String::new());
    for test in tests {
        match compile(test, mapping) {
            Ok(c) => {
                compiled += 1;
                let _ = writeln!(text, "{} {:?}", c.name(), c.program());
            }
            Err(e) => {
                let _ = writeln!(text, "{} error: {e}", test.name());
            }
        }
    }
    let digest = fnv1a(text.as_bytes());
    let _ = writeln!(
        out,
        "  suite: {compiled}/{} compiled, digest {digest:016x}",
        tests.len()
    );
    out
}

/// The eight built-in mappings — the four Figure 15 RISC-V tables, the
/// two §7 Power tables, the two x86 tables of `models/x86-tso.stack` —
/// entry by entry and over the whole suite. The fixture was generated
/// from the hand-written Rust mappings the tables replaced.
#[test]
fn builtin_mappings_match_committed_fixture() {
    let mut mappings = Vec::new();
    for isa in [RiscvIsa::Base, RiscvIsa::BaseA] {
        for version in [SpecVersion::Curr, SpecVersion::Ours] {
            mappings.push(riscv_mapping(isa, version));
        }
    }
    mappings.extend(PowerSyncStyle::ALL.map(power_mapping));
    mappings.extend(
        MatrixSpec::X86
            .stacks()
            .into_iter()
            .map(|stack| stack.mapping),
    );
    let tests = suite::full_suite();
    let actual: String = mappings
        .into_iter()
        .map(|m| describe_mapping(m, &tests))
        .collect();
    assert_matches_fixture("builtin_mappings.txt", &actual);
}
