//! Text rendering of sweep results in the shape of the paper's Figure 15
//! and §6 tables, and of the mapping-study tables.

use std::fmt::Write as _;

use tricheck_isa::{RiscvIsa, SpecVersion};

use crate::runner::{StackKey, SweepResults, SweepRow};

/// Renders one Figure-15-style chart: for a single litmus family, the
/// Bug / Overly Strict / Equivalent counts for every µarch model under
/// every (ISA, version) combination.
#[must_use]
pub fn family_chart(results: &SweepResults, family: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== litmus family: {family} ==");
    let _ = writeln!(
        out,
        "{:<8} {:<12} {:<8} {:>6} {:>14} {:>11} {:>7}",
        "ISA", "version", "model", "Bugs", "OverlyStrict", "Equivalent", "Total"
    );
    for row in results.rows().iter().filter(|r| r.family == family) {
        let _ = writeln!(
            out,
            "{:<8} {:<12} {:<8} {:>6} {:>14} {:>11} {:>7}",
            row.key.isa,
            row.key.variant,
            row.model.split('/').next().unwrap_or(&row.model),
            row.bugs,
            row.overly_strict,
            row.equivalent,
            row.total()
        );
    }
    out
}

/// Renders the aggregate chart from the bottom-right of Figure 15:
/// per family and (ISA, version), the percentage of variants that are
/// bugs / overly strict / equivalent across all µSpec models. A variant
/// counts as a Bug if it ever misbehaved on any model, as Overly Strict
/// if it was ever overly strict but never a bug (paper §6).
#[must_use]
pub fn aggregate_chart(results: &SweepResults, families: &[&str]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== aggregated across µSpec models ==");
    let _ = writeln!(
        out,
        "{:<10} {:<8} {:<12} {:>8} {:>14} {:>12}",
        "family", "ISA", "version", "Bugs%", "OverlyStrict%", "Equivalent%"
    );
    for &family in families {
        for isa in [RiscvIsa::Base, RiscvIsa::BaseA] {
            for version in [SpecVersion::Curr, SpecVersion::Ours] {
                let key = StackKey::riscv(isa, version);
                let rows: Vec<&SweepRow> = results
                    .rows()
                    .iter()
                    .filter(|r| r.family == family && r.key == key)
                    .collect();
                if rows.is_empty() {
                    continue;
                }
                let total = rows[0].total();
                if total == 0 {
                    continue;
                }
                // Aggregate per-variant over models: since rows only carry
                // counts, approximate the paper's aggregation with the
                // per-model maxima (exact when the buggy variant sets are
                // nested across models, which holds for this suite: each
                // family's bugs stem from a single mechanism).
                let bugs = rows.iter().map(|r| r.bugs).max().unwrap_or(0);
                let strict = rows.iter().map(|r| r.overly_strict).max().unwrap_or(0);
                let bugs_pct = 100.0 * bugs as f64 / total as f64;
                let strict_pct = (100.0 * strict as f64 / total as f64).min(100.0 - bugs_pct);
                let equiv_pct = 100.0 - bugs_pct - strict_pct;
                let _ = writeln!(
                    out,
                    "{:<10} {:<8} {:<12} {:>7.1}% {:>13.1}% {:>11.1}%",
                    family, key.isa, key.variant, bugs_pct, strict_pct, equiv_pct
                );
            }
        }
    }
    out
}

/// Renders the headline table: total bugs per (ISA, version, model)
/// across the whole suite (the paper's "144 forbidden outcomes" comes
/// from the A9like / Base+A / riscv-curr cell).
#[must_use]
pub fn headline_table(results: &SweepResults) -> String {
    let models = ["WR", "rWR", "rWM", "rMM", "nWR", "nMM", "A9like"];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== total C11-forbidden-yet-observable outcomes (suite of 1701) =="
    );
    let _ = writeln!(
        out,
        "{:<8} {:<12} {}",
        "ISA",
        "version",
        models.map(|m| format!("{m:>7}")).join(" ")
    );
    for isa in [RiscvIsa::Base, RiscvIsa::BaseA] {
        for version in [SpecVersion::Curr, SpecVersion::Ours] {
            let key = StackKey::riscv(isa, version);
            let counts: Vec<String> = models
                .iter()
                .map(|m| format!("{:>7}", results.bugs_for(key, m)))
                .collect();
            let _ = writeln!(
                out,
                "{:<8} {:<12} {}",
                key.isa,
                key.variant,
                counts.join(" ")
            );
        }
    }
    out
}

/// Renders a mapping-study table under `title`: one row per (stack
/// key, model) pair with its Bug / Overly Strict / Equivalent counts
/// summed over families, in matrix order. The §7 Power and x86 studies
/// ([`MatrixSpec::title`](crate::MatrixSpec::title)) and stack files
/// (their `title` line) all render through it, so a stack file that
/// replicates a built-in study produces byte-identical output.
#[must_use]
pub fn stack_table(results: &SweepResults, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<15} {:<22} {:>6} {:>14} {:>11} {:>7}",
        "mapping", "model", "Bugs", "OverlyStrict", "Equivalent", "Total"
    );
    // Aggregate each (key, model) pair over families, preserving the
    // rows' matrix order.
    let mut order: Vec<(StackKey, &str)> = Vec::new();
    for row in results.rows() {
        let cell = (row.key, row.model.as_str());
        if !order.contains(&cell) {
            order.push(cell);
        }
    }
    for (key, model) in order {
        let (mut bugs, mut strict, mut equiv) = (0, 0, 0);
        for row in results
            .rows()
            .iter()
            .filter(|r| r.key == key && r.model == model)
        {
            bugs += row.bugs;
            strict += row.overly_strict;
            equiv += row.equivalent;
        }
        let _ = writeln!(
            out,
            "{:<15} {:<22} {:>6} {:>14} {:>11} {:>7}",
            key.variant,
            model,
            bugs,
            strict,
            equiv,
            bugs + strict + equiv
        );
    }
    out
}

/// Serializes sweep results as CSV (`isa,version,model,family,bugs,
/// overly_strict,equivalent,total`), for external plotting of Figure 15.
#[must_use]
pub fn to_csv(results: &SweepResults) -> String {
    let mut out = String::from("isa,version,model,family,bugs,overly_strict,equivalent,total\n");
    for row in results.rows() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            row.key.isa,
            row.key.variant,
            row.model.split('/').next().unwrap_or(&row.model),
            row.family,
            row.bugs,
            row.overly_strict,
            row.equivalent,
            row.total()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{MatrixSpec, Sweep};
    use tricheck_litmus::suite;

    fn small_results() -> SweepResults {
        // Two families, tiny variant subsets, full model sweep.
        let tests = vec![
            suite::mp([tricheck_litmus::MemOrder::Rlx; 4]),
            suite::sb([tricheck_litmus::MemOrder::Sc; 4]),
        ];
        Sweep::new().run_matrix(&tests, &MatrixSpec::Riscv.stacks())
    }

    #[test]
    fn family_chart_contains_all_models() {
        let chart = family_chart(&small_results(), "mp");
        for model in ["WR", "rWR", "rWM", "rMM", "nWR", "nMM", "A9like"] {
            assert!(chart.contains(model), "chart missing {model}:\n{chart}");
        }
        // 7 models × 2 ISAs × 2 versions + 2 header lines.
        assert_eq!(chart.lines().count(), 2 + 28);
    }

    #[test]
    fn aggregate_chart_percentages_are_bounded() {
        let chart = aggregate_chart(&small_results(), &["mp", "sb"]);
        assert!(chart.contains("mp"));
        assert!(chart.contains("sb"));
        for line in chart.lines().skip(2) {
            for field in line.split_whitespace().filter(|f| f.ends_with('%')) {
                let v: f64 = field.trim_end_matches('%').parse().unwrap();
                assert!(
                    (0.0..=100.0).contains(&v),
                    "percentage out of range: {line}"
                );
            }
        }
    }

    #[test]
    fn headline_table_lists_four_stack_rows() {
        let table = headline_table(&small_results());
        assert_eq!(table.lines().count(), 2 + 4);
        assert!(table.contains("Base"));
        assert!(table.contains("Base+A"));
    }

    #[test]
    fn stack_table_lists_every_study_cell() {
        let tests = vec![
            suite::mp([tricheck_litmus::MemOrder::Rlx; 4]),
            suite::sb([tricheck_litmus::MemOrder::Sc; 4]),
        ];
        let power = MatrixSpec::Power;
        let results = Sweep::new().run_matrix(&tests, &power.stacks());
        let table = stack_table(&results, power.title().expect("a study title"));
        // 2 sync styles × 2 ARMv7 models + 2 header lines.
        assert_eq!(table.lines().count(), 2 + 4);
        assert!(table.contains("leading-sync"));
        assert!(table.contains("trailing-sync"));
        assert!(table.contains("ARMv7-A9like"));
        assert!(table.contains("ARMv7-A9-ldld-hazard"));
    }

    #[test]
    fn csv_has_one_line_per_row_plus_header() {
        let results = small_results();
        let csv = to_csv(&results);
        assert_eq!(csv.lines().count(), 1 + results.rows().len());
        assert!(csv.starts_with("isa,version,model,family,"));
        // Every data line has 8 fields.
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 8, "bad CSV line: {line}");
        }
    }
}
