//! A run that cannot deliver what it was asked for must exit non-zero, so
//! a script never mistakes a missing report for a finished experiment.

use std::path::PathBuf;
use std::process::Command;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wefr_exit_status_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn a_flag_value_the_fleet_rejects_is_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_exp4_runtime"))
        .args(["--quick", "--drives", "0"])
        .output()
        .expect("exp4_runtime launches");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains("no drives configured") && stderr.contains("usage:"));
}

#[test]
fn unwritable_out_dir_fails_the_run() {
    let dir = fresh_dir("out");
    // A directory below a regular file can never be created.
    let file = dir.join("regular-file");
    std::fs::write(&file, b"").expect("regular file");
    let output = Command::new(env!("CARGO_BIN_EXE_table1_attributes"))
        .args(["--quick", "--out"])
        .arg(file.join("sub"))
        .output()
        .expect("table1_attributes launches");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        !output.status.success(),
        "table1_attributes exited 0 without writing its report\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stderr).contains("failed to write"));
}

#[test]
fn all_experiments_fails_when_a_child_cannot_launch() {
    // Alone in an empty directory, all_experiments finds none of the
    // binaries it runs.
    let dir = fresh_dir("all");
    let binary = dir.join("all_experiments");
    std::fs::copy(env!("CARGO_BIN_EXE_all_experiments"), &binary).expect("copy all_experiments");
    let output = Command::new(&binary)
        .arg("--quick")
        .output()
        .expect("all_experiments launches");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        !output.status.success(),
        "all_experiments exited 0 although no child ran\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
