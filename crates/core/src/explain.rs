//! Diagnosis support for the refinement loop (paper Figure 6, the
//! "Fix one or more models" arrow).
//!
//! When Step 4 flags a discrepancy, the designer needs to know *which*
//! execution misbehaves and *which* ordering was (or was not) enforced.
//! [`diagnose`] produces, for one litmus test on one stack:
//!
//! - the C11 verdict for the target outcome,
//! - the µarch verdict, with a **witness execution** when the outcome is
//!   observable (the paper: "TriCheck provides information that aids
//!   designers in determining if the cause is an incorrect compiler
//!   mapping, ISA specification, hardware implementation…"),
//! - when the outcome is µarch-forbidden, the axiom each candidate
//!   execution trips over,
//! - a Graphviz rendering of the witness in the spirit of the Check
//!   tools' µhb graphs.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use tricheck_compiler::{compile, CompileError, Mapping};
use tricheck_litmus::enumerate::enumerate_matching;
use tricheck_litmus::LitmusTest;
use tricheck_uarch::{UarchModel, UarchViolation};

use crate::verdict::Classification;
use crate::TriCheck;

/// The full diagnosis of one litmus test on one stack configuration.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    /// The litmus test's name.
    pub test: String,
    /// Whether C11 permits the target outcome.
    pub c11_permits: bool,
    /// Whether the microarchitecture exhibits it.
    pub uarch_observes: bool,
    /// The Step 4 classification.
    pub classification: Classification,
    /// A textual event listing of the witness execution, when observable.
    pub witness: Option<Vec<String>>,
    /// A Graphviz DOT rendering of the witness, when observable.
    pub witness_dot: Option<String>,
    /// When unobservable: how many target-matching candidates each axiom
    /// rejected (the "why is this forbidden" view).
    pub rejections: BTreeMap<UarchViolation, usize>,
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "test: {}", self.test)?;
        writeln!(
            f,
            "C11 {} the target; microarchitecture {} it => {}",
            if self.c11_permits {
                "permits"
            } else {
                "forbids"
            },
            if self.uarch_observes {
                "observes"
            } else {
                "cannot observe"
            },
            self.classification
        )?;
        if let Some(witness) = &self.witness {
            writeln!(f, "witness execution:")?;
            for line in witness {
                writeln!(f, "  {line}")?;
            }
        }
        if !self.rejections.is_empty() {
            writeln!(f, "candidate executions rejected by axiom:")?;
            for (axiom, count) in &self.rejections {
                writeln!(f, "  {axiom}: {count}")?;
            }
        }
        Ok(())
    }
}

/// Runs the full toolflow for one test and explains the verdict.
///
/// # Errors
///
/// Returns a [`CompileError`] if the mapping cannot express the test.
pub fn diagnose(
    mapping: &dyn Mapping,
    uarch: &UarchModel,
    test: &LitmusTest,
) -> Result<Diagnosis, CompileError> {
    let stack = TriCheck::new(mapping, uarch.clone());
    let result = stack.verify(test)?;

    let compiled = compile(test, mapping)?;
    let mut witness = None;
    let mut witness_dot = None;
    let mut rejections: BTreeMap<UarchViolation, usize> = BTreeMap::new();

    enumerate_matching(compiled.program(), compiled.target(), &mut |exec| {
        match uarch.check(exec) {
            Ok(()) => {
                let lines = (0..exec.len())
                    .map(|e| {
                        let mut line = exec.describe_event(e);
                        if let Some(src) = exec.rf().inverse().successors(e).iter().next() {
                            let _ = write!(line, "  (reads from e{src})");
                        }
                        line
                    })
                    .collect();
                witness = Some(lines);
                witness_dot = Some(exec.to_dot(test.name(), &[]));
                false // one witness suffices
            }
            Err(violation) => {
                *rejections.entry(violation).or_default() += 1;
                true
            }
        }
    });

    Ok(Diagnosis {
        test: test.name().to_string(),
        c11_permits: result.permitted(),
        uarch_observes: result.observable(),
        classification: result.classification(),
        witness,
        witness_dot,
        rejections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricheck_compiler::riscv_mapping;
    use tricheck_isa::RiscvIsa::Base;
    use tricheck_isa::SpecVersion::{self, Curr, Ours};
    use tricheck_litmus::suite;

    fn diagnose_wrc(version: SpecVersion, model: &UarchModel) -> Diagnosis {
        diagnose(riscv_mapping(Base, version), model, &suite::fig3_wrc()).unwrap()
    }

    #[test]
    fn bug_diagnosis_carries_a_witness() {
        let d = diagnose_wrc(Curr, &UarchModel::nwr(Curr));
        assert_eq!(d.classification, Classification::Bug);
        let witness = d.witness.expect("observable outcome must have a witness");
        assert!(witness.iter().any(|l| l.contains("reads from")));
        let dot = d.witness_dot.expect("witness must render");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("cluster_t2"));
    }

    #[test]
    fn forbidden_diagnosis_names_the_blocking_axioms() {
        let d = diagnose_wrc(Ours, &UarchModel::nwr(Ours));
        assert_eq!(d.classification, Classification::Equivalent);
        assert!(d.witness.is_none());
        assert!(!d.rejections.is_empty());
        // The WRC fix works through write propagation (cumulative fences).
        let total: usize = d.rejections.values().sum();
        assert!(total > 0);
        assert!(
            d.rejections.contains_key(&UarchViolation::Observation)
                || d.rejections.contains_key(&UarchViolation::Propagation),
            "WRC must be blocked by a propagation-class axiom: {:?}",
            d.rejections
        );
    }

    #[test]
    fn display_is_informative() {
        let d = diagnose_wrc(Curr, &UarchModel::nmm(Curr));
        let text = d.to_string();
        assert!(text.contains("Bug"));
        assert!(text.contains("witness execution"));
    }
}
