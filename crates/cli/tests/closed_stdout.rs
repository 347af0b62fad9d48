//! A reader that stops early (`tricheck list | head -3`) is not an
//! error: the command ends quietly and successfully instead of
//! panicking on the broken pipe. Runs the binary with its stdout pipe
//! closed before anything is written, so every write hits the closed
//! pipe.

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_quietly_and_successfully() {
    for args in [&["list"][..], &["sweep", "sb", "--x86", "--cache-stats"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tricheck"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run tricheck");
        drop(child.stdout.take());
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        let status = child.wait().expect("wait for tricheck");
        assert!(
            !stderr.contains("panicked"),
            "tricheck {args:?} panicked: {stderr}"
        );
        assert!(status.success(), "tricheck {args:?} failed: {status}");
    }
}
