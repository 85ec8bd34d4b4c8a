//! Bad input to the harness binaries is an error, never a panic: a
//! usage or encoding error exits with status 2 and a message naming
//! what was wrong.

use std::process::{Command, Output};

fn assert_input_error(output: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "missing {needle:?} in: {stderr}");
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
}

#[test]
fn sweep_worker_rejects_a_bad_shard_line_with_file_and_line() {
    let dir = std::env::temp_dir().join(format!("gtt-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let shard = dir.join("shard");
    std::fs::write(&shard, "# one bad cell\nk miss zz\n").expect("write shard");
    let output = Command::new(env!("CARGO_BIN_EXE_sweep_worker"))
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .arg(&shard)
        .output()
        .expect("run sweep_worker");
    let _ = std::fs::remove_dir_all(&dir);
    assert_input_error(
        &output,
        &format!("{}:2: bad experiment encoding", shard.display()),
    );
}

#[test]
fn city_rejects_an_unknown_flag() {
    let output = Command::new(env!("CARGO_BIN_EXE_city"))
        .arg("--bogus")
        .output()
        .expect("run city");
    assert_input_error(&output, "unknown argument --bogus");
    assert!(output.stdout.is_empty(), "no smoke run may start");
}

#[test]
fn bench_engine_rejects_an_unknown_flag() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_engine"))
        .arg("--quik")
        .output()
        .expect("run bench_engine");
    assert_input_error(&output, "unknown argument --quik");
}
