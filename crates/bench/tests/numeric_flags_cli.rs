//! The command line of the repro binaries fails loudly: a numeric flag
//! whose value is not a number (or is missing) exits 2 with the usage
//! text, before any campaign runs, instead of silently falling back to
//! a default, an uncapped study, an in-process run or a disabled
//! watchdog; so does an argument the binaries do not know, and a
//! matrix axis list naming a kernel, workload or subsystem that does not
//! exist (the error lists the valid names), and a flag given outside the
//! mode it belongs to.

use kfi_bench::ReproOptions;
use proptest::prelude::*;
use std::process::Command;

const NUMERIC_FLAGS: [&str; 10] = [
    "--cap",
    "--seed",
    "--threads",
    "--cpus",
    "--wall-budget-ms",
    "--dist-workers",
    "--chaos",
    "--dist-hb-ms",
    "--dist-hb-budget-ms",
    "--dist-handshake-ms",
];

#[test]
fn unknown_arguments_exit_2_with_the_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(["--cap", "1", "--no-such-flag"])
        .output()
        .expect("spawn repro_all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument `--no-such-flag`"), "{stderr}");
    assert!(stderr.contains("usage: repro_all"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn malformed_numbers_exit_2_with_the_usage() {
    for flag in NUMERIC_FLAGS {
        for args in [vec![flag, "x"], vec![flag, "-3"], vec![flag]] {
            let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
                .args(&args)
                .output()
                .expect("spawn repro_all");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains(&format!("{flag}: expected a number")), "{args:?}: {stderr}");
            assert!(stderr.contains("usage: repro_all"), "{args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
        }
    }
}

#[test]
fn unknown_matrix_axis_names_exit_2_with_the_valid_names() {
    for (flag, list, bad, valid) in [
        ("--matrix-kernels", "base,bogus", "bogus", "base, server"),
        ("--matrix-workloads", "echo,bogus", "bogus", "echo, netstorm, sysstorm, forkflood"),
        ("--matrix-subsystems", "bogus", "bogus", "arch, drivers, fs, init, ipc, kernel"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
            .args(["--matrix", "--cap", "1", flag, list])
            .output()
            .expect("spawn repro_all");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(&format!("{flag}: unknown name `{bad}`")), "{flag}: {stderr}");
        assert!(stderr.contains(valid), "{flag}: {stderr}");
        assert!(stderr.contains("usage: repro_all"), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: nothing may run");
    }
}

/// Runs `repro_all` with `args`, asserting it exits 2 with the usage
/// text and a message containing `want`, before anything runs.
fn rejected(args: &[&str], want: &str) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_repro_all")).args(args).output().expect("spawn repro_all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(want), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: repro_all"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
}

#[test]
fn missing_values_exit_2_with_the_usage() {
    for flag in [
        "--journal",
        "--quarantine",
        "--matrix-kernels",
        "--matrix-workloads",
        "--matrix-subsystems",
        "--inject-panic",
        "--inject-panic-persistent",
    ] {
        rejected(&["--cap", "1", flag], &format!("{flag}: expected "));
    }
}

#[test]
fn zero_counts_exit_2_with_the_usage() {
    for flag in ["--cpus", "--threads", "--dist-workers"] {
        rejected(
            &["--cap", "1", flag, "0"],
            &format!("{flag}: expected a number above 0, got `0`"),
        );
    }
}

#[test]
fn a_non_number_in_a_panic_list_exits_2_with_the_usage() {
    for flag in ["--inject-panic", "--inject-panic-persistent"] {
        rejected(
            &["--cap", "1", flag, "1,x"],
            &format!("{flag}: expected a list of run indices, got `1,x`"),
        );
    }
}

#[test]
fn flags_outside_their_mode_exit_2_with_the_usage() {
    for (args, want) in [
        (&["--resume"][..], "--resume needs --journal"),
        (&["--chaos", "1"], "--chaos needs --dist-workers"),
        (&["--dist-hb-budget-ms", "9"], "--dist-hb-budget-ms needs --dist-workers"),
        (&["--dist-handshake-ms", "9"], "--dist-handshake-ms needs --dist-workers"),
        (&["--wedge-first-handshake"], "--wedge-first-handshake needs --dist-workers"),
        (&["--dist-hb-ms", "9"], "--dist-hb-ms needs --dist-workers or --worker"),
        (&["--worker-wedge-handshake"], "--worker-wedge-handshake needs --worker"),
        (&["--matrix-kernels", "base"], "--matrix-kernels needs --matrix"),
        (&["--matrix-workloads", "echo"], "--matrix-workloads needs --matrix"),
        (&["--matrix-subsystems", "ipc"], "--matrix-subsystems needs --matrix"),
        (&["--check"], "--check needs --matrix"),
    ] {
        rejected(&[&["--cap", "1"], args].concat(), want);
    }
    // A malformed number is reported as such, before its mode is checked.
    rejected(&["--chaos", "x"], "--chaos: expected a number, got `x`");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every field `to_worker_args` emits parses back unchanged, and
    /// the worker runs on one thread.
    #[test]
    fn the_worker_arguments_parse_back(
        seed in any::<u64>(),
        cap in (any::<bool>(), any::<usize>()).prop_map(|(full, cap)| (!full).then_some(cap)),
        cpus in 1u32..u32::MAX,
        (no_assertions, sanitize, no_memo) in (any::<bool>(), any::<bool>(), any::<bool>()),
        wall_budget_ms in (any::<bool>(), any::<u64>()).prop_map(|(on, ms)| on.then_some(ms)),
        dist_hb_ms in any::<u64>(),
    ) {
        let o = ReproOptions {
            cap,
            seed,
            cpus,
            no_assertions,
            sanitize,
            no_memo,
            wall_budget_ms,
            dist_hb_ms,
            ..ReproOptions::default()
        };
        let args: Vec<String> =
            std::iter::once("repro_all".to_string()).chain(o.to_worker_args()).collect();
        let back = ReproOptions::parse(&args);
        prop_assert!(back.worker && back.threads == 1, "{:?}", args);
        let fields = |o: &ReproOptions| {
            (o.seed, o.cap, o.cpus, o.no_assertions, o.sanitize, o.no_memo, o.wall_budget_ms)
        };
        prop_assert_eq!(fields(&back), fields(&o), "{:?}", args);
        prop_assert_eq!(back.dist_hb_ms, o.dist_hb_ms, "{:?}", args);
    }
}
