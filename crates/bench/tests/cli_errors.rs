//! Bad input to the harness binaries is an error, never a panic: a
//! usage error exits with status 2, prints nothing on stdout (no run
//! starts) and names what was wrong on stderr.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"))
}

fn assert_input_error(output: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "missing {needle:?} in: {stderr}");
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
    assert!(
        output.stdout.is_empty(),
        "no run may start: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn figure_binaries_reject_bad_flags() {
    let fig8 = env!("CARGO_BIN_EXE_fig8");
    for (args, needle) in [
        (&["--bogus"][..], "unknown flag --bogus"),
        (&["--jobs", "0"][..], "--jobs needs a positive integer"),
        // Removed flags are rejected like any unknown one.
        (&["--list"][..], "unknown flag --list"),
        (&["--no-cache"][..], "unknown flag --no-cache"),
        (&["--cache-only"][..], "unknown flag --cache-only"),
        (&["--cache-dir", "DIR"][..], "unknown flag --cache-dir"),
        (&["--enqueue", "DIR"][..], "unknown flag --enqueue"),
        // An unwritable trace path fails before anything is simulated.
        (
            &["--quick", "--pcap", "/nonexistent/dir/x.pcap"][..],
            "cannot write trace to /nonexistent/dir/x.pcap",
        ),
    ] {
        assert_input_error(&run(fig8, args), needle);
    }
    assert_input_error(
        &run(env!("CARGO_BIN_EXE_ablation_weights"), &["--quik"]),
        "unknown flag --quik",
    );
}

#[test]
fn diagnose_rejects_a_bad_rate() {
    let diagnose = env!("CARGO_BIN_EXE_diagnose");
    // `1.3e8` is above one packet per microsecond, the clock's
    // resolution: its period would round to 0 µs. The last two are
    // below one packet per `u32::MAX` µs: a period of exactly 2^32 µs
    // and one of 6,000 s, too long for the phase draw.
    for rate in [
        "abc",
        "0",
        "-5",
        "inf",
        "NaN",
        "1.3e8",
        "0.013969838619232178",
        "0.01",
    ] {
        assert_input_error(&run(diagnose, &[rate]), "PPM must be");
    }
}

#[test]
fn bench_engine_rejects_an_unknown_flag() {
    let bench_engine = env!("CARGO_BIN_EXE_bench_engine");
    for (args, needle) in [
        (&["--quik"][..], "unknown argument --quik"),
        // Concurrent measurement is gone: it could only skip the gates.
        (&["--jobs", "2"][..], "unknown argument --jobs"),
    ] {
        assert_input_error(&run(bench_engine, args), needle);
    }
}
