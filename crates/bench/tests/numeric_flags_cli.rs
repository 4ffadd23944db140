//! The numeric flags of the repro binaries fail loudly: a value of
//! `--cap`, `--seed`, `--threads` or `--cpus` that is not a number (or
//! is missing) exits 2 with the usage text, before any campaign runs,
//! instead of silently falling back to a default or an uncapped study.

use std::process::Command;

#[test]
fn malformed_numbers_exit_2_with_the_usage() {
    for flag in ["--cap", "--seed", "--threads", "--cpus"] {
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
