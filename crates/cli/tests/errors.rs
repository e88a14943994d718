//! How the `exacoll` binary reports errors: a failing subcommand prints its
//! one-line error alone, and only a malformed invocation adds the usage
//! block.

use std::process::{Command, Output};

fn exacoll(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exacoll"))
        .args(args)
        .output()
        .expect("spawn exacoll binary")
}

#[test]
fn malformed_replay_artifact_prints_its_error_without_usage() {
    let path = std::env::temp_dir().join(format!(
        "exacoll-errors-test-{}-malformed.json",
        std::process::id()
    ));
    std::fs::write(&path, "{not json").expect("write artifact");
    let out = exacoll(&["replay", path.to_str().expect("utf-8 temp path")]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one error line only: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    assert!(
        !stderr.contains("usage:"),
        "usage must not bury the error: {stderr}"
    );
}

#[test]
fn unknown_subcommand_still_prints_usage() {
    let out = exacoll(&["bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: unknown subcommand `bogus`"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}
