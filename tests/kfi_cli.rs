//! The `kfi` command line fails loudly: an unknown command or argument,
//! a missing or unknown function name, a flag without its value, a
//! non-number where a number belongs, an unknown campaign and a `--mode`
//! that names no workload each exit 2 with a one-line message and the
//! usage, before anything boots.

use std::process::{Command, Output};

fn kfi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kfi")).args(args).output().expect("spawn kfi")
}

/// Runs `kfi` with `args`, asserting it exits 2 with `want` in its
/// message and the usage text, and prints nothing to stdout.
fn rejected(args: &[&str], want: &str) {
    let out = kfi(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.starts_with("kfi: ") && first.contains(want), "{args:?}: {stderr}");
    assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
}

#[test]
fn unknown_commands_and_arguments_exit_2() {
    rejected(&[], "missing command");
    rejected(&["bogus"], "unknown command `bogus`");
    rejected(&["boot", "--bogus"], "unknown argument `--bogus`");
    rejected(&["boot", "extra"], "unexpected argument `extra`");
    // The study and the profile are `repro_all`'s (`--only table1`).
    rejected(&["report"], "unknown command `report`");
    rejected(&["profile"], "unknown command `profile`");
    rejected(&["disasm", "schedule", "extra"], "unexpected argument `extra`");
}

#[test]
fn missing_or_unknown_function_names_exit_2() {
    for command in ["disasm", "inject"] {
        rejected(&[command], "missing function name");
        rejected(&[command, "no_such_fn"], "unknown kernel function `no_such_fn`");
    }
}

#[test]
fn malformed_flag_values_exit_2() {
    rejected(&["boot", "--mode", "x"], "--mode: expected a workload number 0..=7, got `x`");
    rejected(&["boot", "--mode", "8"], "--mode: expected a workload number 0..=7, got `8`");
    rejected(&["inject", "pipe_read", "--mode", "99"], "--mode: expected a workload number");
    rejected(&["inject", "pipe_read", "--count", "x"], "--count: expected a number, got `x`");
    rejected(&["inject", "pipe_read", "--seed", "-1"], "--seed: expected a number, got `-1`");
    rejected(&["inject", "pipe_read", "--campaign", "D"], "--campaign: expected A, B or C");
}

#[test]
fn flags_without_a_value_exit_2() {
    for args in [
        &["boot", "--mode"][..],
        &["inject", "pipe_read", "--campaign"],
        &["inject", "pipe_read", "--mode"],
        &["inject", "pipe_read", "--count"],
        &["inject", "pipe_read", "--seed"],
    ] {
        rejected(args, &format!("{}: missing value", args[args.len() - 1]));
    }
}

#[test]
fn well_formed_commands_still_run() {
    let out = kfi(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE:"));
    let out = kfi(&["disasm", "do_page_fault"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("do_page_fault (arch)"));
}
