//! `check_machine` fails loudly: a zero, missing or non-numeric seed
//! count and an unknown argument exit 2 with the usage line before any
//! pair runs, instead of checking nothing and reporting that all pairs
//! agree.

use std::process::Command;

#[test]
fn bad_counts_and_unknown_arguments_exit_2_with_the_usage() {
    for (args, want) in [
        (&["--seeds", "0"][..], "--seeds: expected a number above 0, got `0`"),
        (&["--campaign-seeds", "0"], "--campaign-seeds: expected a number above 0, got `0`"),
        (&["--seeds", "0", "--campaign-seeds", "0"], "--seeds: expected a number above 0"),
        (&["--seeds", "x"], "--seeds: expected a number above 0, got `x`"),
        (&["--seeds"], "--seeds: expected a number above 0, got nothing"),
        (&["--bogus"], "unknown argument: --bogus"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_check_machine")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: check_machine"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
}
