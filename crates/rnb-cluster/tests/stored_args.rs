//! `rnb-stored` refuses a bad flag value the way it refuses every other
//! usage error: one line on stderr and exit status 2, never a panic.
//! Each run passes `--control` with stdin closed, so a binary that
//! wrongly accepts the flags shuts itself down instead of serving.

use rnb_cluster::stored_binary;
use std::process::{Command, Stdio};

/// Run `rnb-stored` with `args`; its exit code and stderr.
fn run_stored(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(stored_binary().expect("rnb-stored binary"))
        .args(["--control", "--port", "0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run rnb-stored");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn mem_too_large_for_bytes_is_a_usage_error() {
    // 2^44 MB is 2^64 bytes, one more than a 64-bit usize can count.
    let (code, stderr) = run_stored(&["--mem", &(1u64 << 44).to_string()]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--mem"), "stderr: {stderr}");
}
