//! End-to-end tests of the benchmark binary on one small litmus family:
//! every metric `BENCHMARK.json` names is reported, two seeds give the
//! same rows and counts, and a wrong reference row fails the run.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::workload::Workload;

const FAMILY: &str = "mp";

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Runs the binary from `root` and returns its exit code and record.
fn run(root: &Path, workload: Workload, seed: u64, trace: bool) -> (i32, String) {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("work-{}-{seed}-{trace}", workload.name()));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.01",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(["--family", FAMILY, "--work-dir"])
        .arg(&work)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let record = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code().unwrap_or(-1), record)
}

/// The raw JSON text of `key`'s scalar value in `json`.
fn scalar<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &json[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// A metric's value and unit from a record.
fn metric(record: &str, name: &str) -> Option<(f64, String)> {
    let at = record.find(&format!("\"{name}\":{{"))?;
    let body = &record[at + name.len() + 3..];
    let value = scalar(body, "value")?.parse().ok()?;
    let unit = scalar(body, "unit")?.trim_matches('"').to_string();
    Some((value, unit))
}

/// The metric names listed under `section` in `BENCHMARK.json`.
fn benchmark_names(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn every_benchmark_metric_is_reported_and_every_workload_passes() {
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let (code, record) = run(&repo_root(), workload, 1, trace);
            assert_eq!(code, 0, "{} trace={trace}: {record}", workload.name());
            assert_eq!(scalar(&record, "correct"), Some("true"), "{record}");
            assert_eq!(scalar(&record, "failed"), Some("0"), "{record}");
            for name in benchmark_names(section) {
                assert!(
                    metric(&record, &name).is_some(),
                    "{} trace={trace} lacks {name}: {record}",
                    workload.name()
                );
            }
        }
    }
}

#[test]
fn two_seeds_give_identical_rows_and_counts() {
    for workload in Workload::ALL {
        let (code_a, a) = run(&repo_root(), workload, 11, true);
        let (code_b, b) = run(&repo_root(), workload, 12, true);
        // Both runs check every sweep's rows, and the replay's, against
        // the same reference: passing runs have identical rows.
        assert_eq!((code_a, code_b), (0, 0), "{a}\n{b}");
        for name in benchmark_names("per_layer") {
            let (va, unit) = metric(&a, &name).expect("reported");
            if unit == "count" || unit == "bytes" || unit == "ratio" {
                let (vb, _) = metric(&b, &name).expect("reported");
                assert_eq!(va, vb, "{} {name} differs between seeds", workload.name());
            }
        }
    }
}

#[test]
fn an_altered_reference_row_fails_the_run() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("altered-root");
    let fixtures = root.join("tests/fixtures");
    std::fs::create_dir_all(&fixtures).expect("create the fixture directory");
    let csv = std::fs::read_to_string(repo_root().join("tests/fixtures/figure15_rows.csv"))
        .expect("the Figure 15 fixture");
    // One mp row moves a variant from equivalent to bug.
    let row = "Base,riscv-curr,WR,mp,0,45,36,81";
    assert!(csv.contains(row), "fixture row present");
    let altered = csv.replacen(row, "Base,riscv-curr,WR,mp,1,45,35,81", 1);
    std::fs::write(fixtures.join("figure15_rows.csv"), altered).expect("write the fixture");

    let (code, record) = run(&root, Workload::Fig15Target, 1, false);
    assert_ne!(code, 0, "{record}");
    assert_eq!(scalar(&record, "correct"), Some("false"), "{record}");
    let (share, _) = metric(&record, "failed_share").expect("failed_share reported");
    assert!(share > 0.0, "{record}");
    assert!(
        record.contains("rows differ from the reference"),
        "{record}"
    );
}
