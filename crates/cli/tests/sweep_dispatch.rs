//! `sweep` resolves its stacks and renderer once, then either runs the
//! sweep in-process or deals it across shard worker processes. Both
//! routes must print the same chart for every built-in study. Runs the
//! binary, since the sharded route spawns it as its own worker.

use std::process::Command;

/// Runs `tricheck` and returns its stdout, failing on a nonzero exit.
fn tricheck(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tricheck"))
        .args(args)
        .output()
        .expect("run tricheck");
    assert!(
        out.status.success(),
        "tricheck {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("the chart is UTF-8")
}

#[test]
fn in_process_and_sharded_sweeps_print_identical_charts() {
    for study in [&[][..], &["--power"], &["--x86"]] {
        let with = |extra: &[&'static str]| -> Vec<&str> {
            ["sweep", "sb"]
                .iter()
                .chain(study)
                .chain(extra)
                .copied()
                .collect()
        };
        let in_process = tricheck(&with(&["--threads", "2"]));
        let sharded = tricheck(&with(&["--shards", "2"]));
        assert!(in_process.starts_with("== "), "{study:?}: {in_process}");
        assert_eq!(in_process, sharded, "{study:?}");
    }
}
