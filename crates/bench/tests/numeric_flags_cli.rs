//! The command line of `repro_all` fails loudly: a numeric flag whose
//! value is not a number (or is missing) exits 2 with the usage text,
//! before any campaign runs, instead of silently falling back to a
//! default, an uncapped study, an in-process run or a disabled
//! watchdog; so does an argument it does not know, a matrix axis list
//! or `--only` naming a kernel, workload, subsystem or artifact that
//! does not exist (the error lists the valid names), a flag given to a
//! run that does not read it, a flag given twice and two flags that set
//! one value. `bench_machine` and `bench_scaling` take `--check` or
//! nothing.

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

#[test]
fn flags_a_run_does_not_read_exit_2_with_the_usage() {
    for (args, want) in [
        (&["--matrix", "--no-memo"][..], "--no-memo is not read by --matrix"),
        (&["--matrix", "--dist-workers", "2"], "--dist-workers is not read by --matrix"),
        (&["--matrix", "--wall-budget-ms", "5"], "--wall-budget-ms is not read by --matrix"),
        (&["--matrix", "--quarantine", "D"], "--quarantine is not read by --matrix"),
        (&["--matrix", "--inject-panic", "0"], "--inject-panic is not read by --matrix"),
        (
            &["--dist-workers", "2", "--quarantine", "D"],
            "--quarantine is not read by --dist-workers",
        ),
        (
            &["--dist-workers", "2", "--inject-panic-persistent", "0"],
            "--inject-panic-persistent is not read by --dist-workers",
        ),
        (&["--worker", "--csv"], "--csv is not read by --worker"),
        (&["--worker", "--journal", "J"], "--journal is not read by --worker"),
        (&["--worker", "--matrix"], "--matrix is not read by --worker"),
        (&["--only", "fig1", "--csv"], "--csv is not read by --only fig1"),
        (&["--only", "table1", "--journal", "J"], "--journal is not read by --only table1"),
        (&["--only", "fig5", "--cap", "4"], "--cap is not read by --only fig5"),
        (&["--only", "fig5", "--dist-workers", "2"], "--dist-workers is not read by --only fig5"),
        (&["--only", "fig6", "--chaos", "1"], "--chaos needs --dist-workers"),
    ] {
        rejected(args, want);
    }
}

#[test]
fn a_value_given_twice_exits_2_with_the_usage() {
    rejected(&["--seed", "1", "--seed", "2"], "--seed given twice");
    rejected(&["--cap", "4", "--full"], "--cap and --full set one value");
    rejected(
        &["--inject-panic", "0", "--inject-panic-persistent", "1"],
        "--inject-panic and --inject-panic-persistent set one value",
    );
}

#[test]
fn an_unknown_artifact_exits_2_with_the_valid_names() {
    for name in ["fig9", "fig4,fig6", ""] {
        rejected(
            &["--only", name],
            &format!("--only: unknown name `{name}` (valid: fig1, table1,"),
        );
    }
}

#[test]
fn help_names_every_flag_and_artifact_and_the_cell_seed() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all")).arg("--help").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    let words: std::collections::BTreeSet<&str> =
        stdout.split(|c: char| c.is_whitespace() || ",.[]".contains(c)).collect();
    let artifacts = kfi_bench::artifact::ARTIFACTS.iter().map(|a| a.name);
    for name in artifacts.chain(NUMERIC_FLAGS).chain(["--only", "--csv", "--matrix", "--worker"]) {
        assert!(words.contains(name), "{name} missing:\n{stdout}");
    }
    assert!(stdout.contains("cell_seed = seed ^ fnv1a"), "{stdout}");
}

#[test]
fn bench_binaries_take_check_or_nothing() {
    for (exe, name) in [
        (env!("CARGO_BIN_EXE_bench_machine"), "bench_machine"),
        (env!("CARGO_BIN_EXE_bench_scaling"), "bench_scaling"),
    ] {
        for args in [&["--chek"][..], &["--check", "extra"]] {
            let out = Command::new(exe).args(args).output().expect("spawn");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert!(stderr.contains(&format!("usage: {name} [--check]")), "{stderr}");
            assert!(out.stdout.is_empty(), "{name} {args:?}: nothing may run");
        }
    }
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
