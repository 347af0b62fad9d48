//! `sweep --x86` parses the embedded x86 stack file lazily, possibly
//! inside the `--metrics-json` session. That is not a lint of the
//! user's files: the lint counters stay absent (or zero), as for every
//! built-in matrix. Runs the binary so no other test shares the session.

use tricheck::trace::json;

#[test]
fn x86_sweep_metrics_carry_no_lint_counters() {
    let path = std::env::temp_dir().join(format!("tricheck-x86-{}.json", std::process::id()));
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_tricheck"))
        .args(["sweep", "sb", "--x86", "--threads", "2", "--metrics-json"])
        .arg(&path)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run tricheck");
    assert!(status.success(), "sweep sb --x86 failed: {status}");
    let doc = std::fs::read_to_string(&path).expect("metrics report written");
    std::fs::remove_file(&path).expect("remove metrics report");
    let parsed = json::parse(&doc).expect("metrics report is JSON");
    let counter = |name| parsed.get("counters")?.get(name)?.as_u64();
    assert!(
        counter("compile_calls") > Some(0),
        "no sweep recorded: {doc}"
    );
    for name in ["lint_rules_checked", "lint_diagnostics"] {
        assert_eq!(counter(name).unwrap_or(0), 0, "{name} in {doc}");
    }
}
